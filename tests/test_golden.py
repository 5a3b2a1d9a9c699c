"""Golden outputs: the digest of every CLI output on the benchmark scenarios.

The three ``perfbench/scenarios`` traces, cut to the benchmark self-test's
durations, are written as JSON lines and pcap by ``synth``.  Each trace goes
through ``analyze`` (report, ``--dot`` and stdout), ``rank`` (CSV and
``--format json``, the top 20 rows and the full table), ``stability`` and
``inspect --dump-segments``, run from a temporary directory with relative
paths so that ``manifest.inputs`` is the same everywhere.  Only
``manifest.duration_s`` is taken out of the report.

``tests/golden.json`` holds the SHA-256 and byte length of each output and
the exit code of each command.  A change to it is a deliberate change of
output; rewrite it with

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from scadascope.cli import main

from scenarios import SCENARIO_DIR

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Scenario -> (duration in seconds, the analyze/stability flags, the flags
# every command takes).  The durations are the benchmark self-test's; the
# flags are the benchmark's, with the churn filter on every command.
TRACES = {
    "day": (900.0, ("--num-protocols", "1", "--three-layer"), ()),
    "churn": (300.0, ("--num-protocols", "2"), ("--filter-ports", "6000")),
    "month": (3 * 86400.0, (), ()),
}


def _entry(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _run(args: list[str], exits: dict, name: str) -> bytes:
    """Run the CLI in process; record its exit code and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exits[name] = main(["--quiet", *args])
    return out.getvalue().encode()


def _strip_duration(text: bytes) -> bytes:
    payload = json.loads(text)
    del payload["manifest"]["duration_s"]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def compute_golden() -> dict:
    """Every output's digest and every command's exit code, from the current directory."""
    outputs: dict[str, dict] = {}
    exits: dict[str, int] = {}
    for scenario, (duration, inference_flags, stream_flags) in TRACES.items():
        obj = json.loads((SCENARIO_DIR / f"{scenario}.json").read_text())
        obj["duration"] = duration
        Path(f"{scenario}.json").write_text(json.dumps(obj))
        jsonl, pcap, truth = f"{scenario}.jsonl", f"{scenario}.pcap", f"{scenario}.truth.json"
        stdout = _run(
            ["synth", "--scenario", f"{scenario}.json", "--out", jsonl, "--pcap", pcap, "--truth", truth],
            exits, f"{scenario} synth",
        )
        outputs[f"{scenario} synth stdout"] = _entry(stdout)
        for path in (jsonl, pcap, truth):
            outputs[path] = _entry(Path(path).read_bytes())
        for trace in (jsonl, pcap):
            flags = [*stream_flags, *inference_flags]
            name = f"{trace} analyze"
            stdout = _run(["analyze", trace, *flags, "--out", "report.json", "--dot", "topo.dot"], exits, name)
            outputs[f"{name} stdout"] = _entry(stdout)
            outputs[f"{name} report"] = _entry(_strip_duration(Path("report.json").read_bytes()))
            outputs[f"{name} dot"] = _entry(Path("topo.dot").read_bytes())
            for fmt in ("csv", "json"):
                name = f"{trace} rank {fmt}"
                outputs[name] = _entry(_run(["rank", trace, *stream_flags, "--format", fmt], exits, name))
                # Every row, down the tail of zero-score ties.
                name = f"{trace} rank {fmt} full"
                outputs[name] = _entry(
                    _run(["rank", trace, *stream_flags, "--format", fmt, "--top", "1000000"], exits, name)
                )
            name = f"{trace} stability"
            outputs[name] = _entry(_run(["stability", trace, *flags], exits, name))
            name = f"{trace} inspect"
            stdout = _run(["inspect", trace, *stream_flags, "--dump-segments", "segments.jsonl"], exits, name)
            outputs[f"{name} stdout"] = _entry(stdout)
            outputs[f"{name} segments"] = _entry(Path("segments.jsonl").read_bytes())
    return {"exits": exits, "outputs": outputs}


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = compute_golden()
    want = json.loads(GOLDEN.read_text())
    assert got["exits"] == want["exits"]
    changed = sorted(
        name for name in got["outputs"].keys() | want["outputs"].keys()
        if got["outputs"].get(name) != want["outputs"].get(name)
    )
    assert not changed, f"outputs differ from tests/golden.json: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            golden = compute_golden()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden['outputs'])} digests to {GOLDEN}")
