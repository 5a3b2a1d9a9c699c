"""CLI tests: subcommand flows, exit codes, output artifacts."""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import io
import json
import logging
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import scadascope

from scadascope import cli
from scadascope.cli import EXIT_INPUT_ERROR, EXIT_LOW_CONFIDENCE, EXIT_OK, main
from scadascope.features import RANKING_CSV_COLUMNS, RankedFt
from scadascope.inference import InferenceConfig
from scadascope.ingest import FilterConfig, FilterStats, PacketRecord, filter_packets, read_records
from scadascope.segmentation import FtCell
from scadascope.synth import generate, load_scenario, write_pcap, write_records

from scenarios import SCENARIO_DIR, churn_like, dataset1_like, dataset2_like, office_like


@pytest.fixture(scope="module")
def d1(tmp_path_factory):
    """A dataset1-style trace on disk with its truth and scenario files."""
    root = tmp_path_factory.mktemp("d1")
    config = dataset1_like(duration=1800.0, seed=501, fds=8)
    records, truth = generate(config)
    trace = root / "trace.jsonl"
    write_records(records, str(trace))
    truth_path = root / "truth.json"
    truth_path.write_text(json.dumps(truth.to_dict()))
    scenario_path = root / "scenario.json"
    scenario_path.write_text(json.dumps(asdict(config)))
    return {"root": root, "trace": trace, "truth": truth_path, "scenario": scenario_path}


def test_synth_writes_trace_truth_and_pcap(tmp_path, d1):
    out = tmp_path / "out.jsonl"
    pcap = tmp_path / "out.pcap"
    truth = tmp_path / "truth.json"
    code = main(
        [
            "--quiet",
            "synth",
            "--scenario",
            str(d1["scenario"]),
            "--out",
            str(out),
            "--pcap",
            str(pcap),
            "--truth",
            str(truth),
        ]
    )
    assert code == EXIT_OK
    assert out.stat().st_size > 0
    assert pcap.read_bytes()[:4] == b"\xd4\xc3\xb2\xa1"
    labels = json.loads(truth.read_text())
    assert labels["10.0.0.1"]["role"] == "master"


def test_synth_pcap_files_equal_the_separate_writers(tmp_path, d1):
    out, pcap = tmp_path / "out.jsonl", tmp_path / "out.pcap"
    args = ["--quiet", "synth", "--scenario", str(d1["scenario"]), "--out", str(out), "--pcap", str(pcap)]
    assert main(args) == EXIT_OK
    config = load_scenario(str(d1["scenario"]))
    write_records(generate(config)[0], str(tmp_path / "want.jsonl"))
    write_pcap(generate(config)[0], str(tmp_path / "want.pcap"))
    assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert pcap.read_bytes() == (tmp_path / "want.pcap").read_bytes()


def test_synth_seed_flag_overrides_the_scenario_seed(tmp_path, d1):
    out = tmp_path / "out.jsonl"
    args = ["--quiet", "synth", "--scenario", str(d1["scenario"]), "--out", str(out), "--seed", "77"]
    assert main(args) == EXIT_OK
    config = load_scenario(str(d1["scenario"]))
    assert config.seed != 77
    config.seed = 77
    write_records(generate(config)[0], str(tmp_path / "want.jsonl"))
    assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_synth_pcap_does_not_hold_the_trace(tmp_path):
    # About 16,000 records: listed, they took 2.2 MiB; streamed, the peak is 0.3 MiB.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(asdict(dataset1_like(duration=3600.0, seed=501, fds=8))))
    args = ["--quiet", "synth", "--scenario", str(scenario), "--out", str(tmp_path / "o.jsonl"),
            "--pcap", str(tmp_path / "o.pcap")]
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_synth_refuses_a_host_that_is_not_ipv4_before_writing(tmp_path, caplog):
    obj = asdict(office_like(duration=60.0))
    obj["peripherals"][0]["hosts"] = ["host-a", "10.0.0.9"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(obj))
    out, pcap = tmp_path / "o.jsonl", tmp_path / "o.pcap"
    args = ["--quiet", "synth", "--scenario", str(scenario), "--out", str(out), "--pcap", str(pcap)]
    assert main(args) == EXIT_INPUT_ERROR
    assert "peripherals[0]: host 'host-a' is not an IPv4 address" in caplog.text
    assert not out.exists() and not pcap.exists()


def test_synth_refuses_too_many_consumers_before_writing(tmp_path, caplog):
    obj = asdict(dataset1_like(duration=60.0))
    obj["reporting"] = [{"scada_period": 20.0, "consumers": 300}]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(obj))
    out, pcap = tmp_path / "o.jsonl", tmp_path / "o.pcap"
    args = ["--quiet", "synth", "--scenario", str(scenario), "--out", str(out), "--pcap", str(pcap)]
    assert main(args) == EXIT_INPUT_ERROR
    assert "reporting[0].consumers: 10.0.241.255 is past the last host 10.0.241.254" in caplog.text
    assert not out.exists() and not pcap.exists()


def test_synth_refuses_a_size_above_the_snaplen_before_writing(tmp_path, caplog):
    month = SCENARIO_DIR / "month.json"
    obj = json.loads(month.read_text())
    obj["duration"] = 600
    obj["scada_groups"][0]["object_sizes"] = [70000]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(obj))
    out, pcap, truth = tmp_path / "big.jsonl", tmp_path / "big.pcap", tmp_path / "truth.json"
    args = ["--quiet", "synth", "--scenario", str(scenario), "--out", str(out), "--pcap", str(pcap),
            "--truth", str(truth)]
    assert main(args) == EXIT_INPUT_ERROR
    assert "scada_groups[0]: object size 70000 above the 65535-byte snaplen" in caplog.text
    assert list(tmp_path.iterdir()) == [scenario]


def _month_scenario(tmp_path, **changes) -> Path:
    """The benchmark's month scenario with ``changes`` to its top-level keys, as a file."""
    month = SCENARIO_DIR / "month.json"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**json.loads(month.read_text()), **changes}))
    return scenario


def _port_exhaustion_scenario(tmp_path) -> Path:
    """The month scenario, 1 h long, whose master runs out of ephemeral ports while generating."""
    return _month_scenario(
        tmp_path, duration=3600, master={"ephemeral_port_range": [60000, 60100], "reconnect_rate": 2000.0}
    )


@pytest.mark.parametrize("with_pcap", [True, False])
def test_synth_failing_while_generating_leaves_no_file(tmp_path, caplog, with_pcap):
    scenario = _port_exhaustion_scenario(tmp_path)
    args = ["--quiet", "synth", "--scenario", str(scenario), "--out", str(tmp_path / "o.jsonl"),
            "--truth", str(tmp_path / "truth.json")]
    if with_pcap:
        args += ["--pcap", str(tmp_path / "o.pcap")]
    assert main(args) == EXIT_INPUT_ERROR
    assert "master ephemeral port range exhausted" in caplog.text
    assert list(tmp_path.iterdir()) == [scenario]


def test_synth_failing_leaves_a_target_that_is_not_a_regular_file(tmp_path):
    scenario = _port_exhaustion_scenario(tmp_path)
    target = tmp_path / "target.jsonl"
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert main(["--quiet", "synth", "--scenario", str(scenario), "--out", str(link)]) == EXIT_INPUT_ERROR
    assert link.is_symlink() and target.stat().st_size > 0


def test_synth_failing_at_set_up_keeps_existing_files(tmp_path, caplog):
    # Six field devices need six ephemeral ports at set-up; the range holds two.
    scenario = _month_scenario(
        tmp_path, duration=60, master={"ephemeral_port_range": [60000, 60001], "reconnect_rate": 0.0}
    )
    outputs = {name: tmp_path / name for name in ("o.jsonl", "o.pcap", "truth.json")}
    for name, path in outputs.items():
        path.write_text(f"keep {name}\n")
    args = ["--quiet", "synth", "--scenario", str(scenario), "--out", str(outputs["o.jsonl"]),
            "--pcap", str(outputs["o.pcap"]), "--truth", str(outputs["truth.json"])]
    assert main(args) == EXIT_INPUT_ERROR
    assert "master ephemeral port range exhausted" in caplog.text
    assert {name: path.read_text() for name, path in outputs.items()} == {
        name: f"keep {name}\n" for name in outputs
    }


def test_synth_to_dev_stdout_writes_only_the_trace(tmp_path):
    scenario = _month_scenario(tmp_path, duration=600)
    src = str(Path(scadascope.__file__).resolve().parents[1])
    piped = tmp_path / "piped.jsonl"
    with open(piped, "wb") as fp:
        proc = subprocess.run(
            [sys.executable, "-m", "scadascope.cli", "synth", "--scenario", str(scenario), "--out", "/dev/stdout"],
            env={**os.environ, "PYTHONPATH": src}, stdout=fp, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == EXIT_OK, proc.stderr
    out = tmp_path / "o.jsonl"
    assert main(["--quiet", "synth", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
    assert piped.read_bytes() == out.read_bytes()
    # The summary goes to the log on stderr.
    assert proc.stderr == f"INFO scadascope: wrote {len(out.read_bytes().splitlines())} records to /dev/stdout\n"


def test_analyze_writes_report_and_dot(tmp_path, d1, capsys, caplog):
    caplog.set_level(logging.INFO, logger="scadascope")
    report_path = tmp_path / "report.json"
    dot_path = tmp_path / "graph.dot"
    code = main(
        [
            "--quiet",
            "analyze",
            str(d1["trace"]),
            "--num-protocols",
            "1",
            "--three-layer",
            "--out",
            str(report_path),
            "--dot",
            str(dot_path),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(report_path.read_text())
    assert payload["protocols"][0]["scada_port"] == 20000
    assert len(payload["protocols"][0]["field_devices"]) == 8
    assert payload["hmi"] == "10.0.0.2"
    assert payload["manifest"]["records"] > 0
    assert payload["manifest"]["config"]["three_layer"] is True
    dot = dot_path.read_text()
    assert "doublecircle" in dot and "diamond" in dot
    # With --out, the report is the only result: the summary goes to the log.
    assert capsys.readouterr().out == ""
    assert "protocol port 20000: 8 field devices, 1 master servers" in caplog.messages
    assert "hmi: 10.0.0.2" in caplog.messages


def test_analyze_stdout_is_the_report(tmp_path, d1, capsys):
    args = ["--quiet", "analyze", str(d1["trace"]), "--three-layer"]
    assert main(args) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    report_path = tmp_path / "report.json"
    assert main([*args, "--out", str(report_path)]) == EXIT_OK
    written = json.loads(report_path.read_text())
    for payload in (printed, written):
        del payload["manifest"]["duration_s"]
    assert printed == written


def test_eval_reports_perfect_score(tmp_path, d1, capsys):
    report_path = tmp_path / "report.json"
    main(["--quiet", "analyze", str(d1["trace"]), "--three-layer", "--out", str(report_path)])
    code = main(["--quiet", "eval", "--report", str(report_path), "--truth", str(d1["truth"])])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "f_score=1.0000" in out


def test_rank_top_five_rows(tmp_path, d1, capsys, caplog):
    caplog.set_level(logging.INFO, logger="scadascope")
    code = main(["--quiet", "rank", str(d1["trace"]), "--top", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("rank,")
    assert len(lines) == 6
    assert ",20000," in lines[1]
    assert "touch port 20000" in caplog.text


def test_rank_json_format(tmp_path, d1, capsys):
    code = main(["--quiet", "rank", str(d1["trace"]), "--top", "3", "--format", "json"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    rows = json.loads(out[: out.rindex("]") + 1])
    assert len(rows) == 3
    assert rows[0]["rank"] == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rank_out_file_equals_printed_table(tmp_path, d1, capsys, caplog, fmt):
    caplog.set_level(logging.INFO, logger="scadascope")
    args = ["--quiet", "rank", str(d1["trace"]), "--top", "4", "--format", fmt]
    assert main(args) == EXIT_OK
    table = capsys.readouterr().out
    [summary] = [m for m in caplog.messages if m.startswith("summary: ")]
    caplog.clear()
    out = tmp_path / f"rank.{fmt}"
    assert main([*args, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes().decode("utf-8") == table
    assert [m for m in caplog.messages if m.startswith("summary: ")] == [summary]


def test_rank_json_rows_match_csv_rows(d1, capsys):
    args = ["--quiet", "rank", str(d1["trace"]), "--top", "50"]
    assert main(args) == EXIT_OK
    header, *cells = csv.reader(io.StringIO(capsys.readouterr().out))
    assert main([*args, "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == len(cells) == 50
    key_fields = ["rank", "src_ip", "src_port", "dst_ip", "dst_port", "seg_size"]
    assert header == [*key_fields, "pR_n", "dR_n", "cR_n", "uR_n", "sR_n", "f"]
    for row, cell in zip(rows, cells):
        assert [str(row[name]) for name in key_fields] == cell[:6]
        assert [f"{x:.4f}" for x in row["features"]] == cell[6:11]
        assert f"{row['f']:.6e}" == cell[11]


@pytest.mark.parametrize("top", ["0", "-1"])
def test_rank_top_below_one_is_exit_2(d1, caplog, capsys, top):
    assert main(["--quiet", "rank", str(d1["trace"]), "--top", top]) == EXIT_INPUT_ERROR
    assert f"--top must be at least 1, got {top}" in caplog.text
    assert capsys.readouterr().out == ""


def test_rank_empty_trace(tmp_path, capsys, caplog):
    # An empty ranking is an empty table; the log says why.
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["--quiet", "rank", str(empty)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ",".join(RANKING_CSV_COLUMNS) + "\r\n"
    assert "no communications to rank" in caplog.messages
    assert main(["--quiet", "rank", str(empty), "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == "[]\n"


def test_analyze_low_confidence_on_office_traffic(tmp_path, caplog):
    records, _ = generate(office_like(duration=3600.0, seed=502))
    trace = tmp_path / "office.jsonl"
    write_records(records, str(trace))
    code = main(["--quiet", "analyze", str(trace), "--num-protocols", "1", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_LOW_CONFIDENCE
    warnings = json.loads((tmp_path / "r.json").read_text())["warnings"]
    assert any(w.startswith("protocol 0: no device met the field-device conditions") for w in warnings)
    # Reported once: the CLI logs the report's warnings, the inference module nothing.
    logged = [(r.name, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING]
    assert logged == [("scadascope", w) for w in warnings]


def test_analyze_partial_when_protocols_exhausted(tmp_path):
    config = dataset2_like(duration=600.0, seed=503)
    config.peripherals = []
    config.noise.nonresponder_retry = False
    records, _ = generate(config)
    trace = tmp_path / "two.jsonl"
    write_records(records, str(trace))
    code = main(["--quiet", "analyze", str(trace), "--num-protocols", "3", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_LOW_CONFIDENCE
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["status"] == "partial"
    assert len(payload["protocols"]) == 2


def test_missing_input_is_exit_2():
    assert main(["--quiet", "analyze", "/nonexistent/trace.jsonl"]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize(
    "field,value",
    [("ts", "NaN"), ("ts", "Infinity"), ("src_port", "true"), ("dst_port", "80.9"), ("size", '"3"')],
)
def test_coerced_record_value_is_exit_2(tmp_path, caplog, field, value):
    obj = {"ts": 1.5, "src_ip": "10.0.0.1", "src_port": 20000, "dst_ip": "10.0.0.2",
           "dst_port": 502, "proto": "tcp", "size": 100}
    good = json.dumps(obj)
    bad = good.replace(f'"{field}": {json.dumps(obj[field])}', f'"{field}": {value}')
    trace = tmp_path / "bad.jsonl"
    trace.write_text(good + "\n" + bad + "\n")
    assert main(["--quiet", "analyze", str(trace)]) == EXIT_INPUT_ERROR
    assert f"{trace}:2: {field} must be" in caplog.text


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("analyze", ["--t-comm", "nan"], "t_comm must be positive and finite, got nan"),
        ("inspect", ["--t-comm", "inf"], "t_comm must be positive and finite, got inf"),
        ("analyze", ["--scada-fraction", "nan"], "scada_fraction_threshold must be positive and finite, got nan"),
        ("stability", ["--scada-fraction", "inf"], "scada_fraction_threshold must be positive and finite, got inf"),
        ("stability", ["--fractions", "nan,0.5"], "argument --fractions: 'nan' is not a fraction in (0, 1]"),
        ("stability", ["--fractions", "0.5,inf"], "argument --fractions: 'inf' is not a fraction in (0, 1]"),
    ],
    ids=["t-comm-nan", "t-comm-inf", "scada-fraction-nan", "scada-fraction-inf", "fractions-nan",
         "fractions-inf"],
)
def test_non_finite_flag_is_exit_2(d1, caplog, capsys, command, flags, message):
    # A setting is refused by its config class (logged), a list item by the
    # flag's parser (argparse's usage error on stderr); the message says which.
    try:
        code = main(["--quiet", command, str(d1["trace"]), *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_INPUT_ERROR
    assert message in caplog.text + capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("analyze", ["--scada-fraction", "1.5"], "scada_fraction_threshold must be below 1, got 1.5"),
        ("stability", ["--scada-fraction", "1"], "scada_fraction_threshold must be below 1, got 1.0"),
        ("analyze", ["--fd-degree-threshold", "1"], "fd_degree_threshold must be above 1, got 1"),
        ("stability", ["--fd-degree-threshold", "1"], "fd_degree_threshold must be above 1, got 1"),
    ],
    ids=["scada-fraction-above-1", "scada-fraction-1", "fd-degree-1", "stability-fd-degree-1"],
)
def test_threshold_no_device_can_meet_is_exit_2(d1, caplog, capsys, command, flags, message):
    # Every device has a peer and at most all its segments on one port, so
    # these settings would leave every protocol without field devices.
    assert main(["--quiet", command, str(d1["trace"]), *flags]) == EXIT_INPUT_ERROR
    assert message in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("analyze", ["--filter-ports", "80,abc"], "argument --filter-ports: 'abc' is not a port number"),
        ("inspect", ["--filter-ports", "70000"], "argument --filter-ports: '70000' is not a port number"),
        ("stability", ["--filter-ports", "-1"], "argument --filter-ports: '-1' is not a port number"),
        ("stability", ["--fractions", "0.5,x"], "argument --fractions: 'x' is not a fraction in (0, 1]"),
        ("stability", ["--fractions", "0"], "argument --fractions: '0' is not a fraction in (0, 1]"),
        ("stability", ["--fractions", "0.5, 1.5"], "argument --fractions: '1.5' is not a fraction in (0, 1]"),
    ],
    ids=["port-word", "port-too-big", "port-negative", "fraction-word", "fraction-zero", "fraction-above-1"],
)
def test_bad_list_flag_item_names_flag_and_item(d1, capsys, command, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", command, str(d1["trace"]), *flags])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("analyze", ["--num-protocols", "0"], "num_scada_protocols must be >= 1"),
        ("stability", ["--fractions", ","], "fractions must lie in (0, 1], got none"),
    ],
    ids=["num-protocols-0", "fractions-none"],
)
def test_empty_setting_is_exit_2(d1, caplog, capsys, command, flags, message):
    assert main(["--quiet", command, str(d1["trace"]), *flags]) == EXIT_INPUT_ERROR
    assert message in caplog.text
    assert capsys.readouterr().out == ""


def test_rank_summary_is_deterministic_and_names_analyze_port(tmp_path, capsys, caplog):
    # Five clients poll port 7 of one server.  Port 7 touches every ranked
    # 5-tuple, but Algorithm 1 reads the port off the top 5-tuple's
    # lower-degree endpoint, a client.
    records = [
        PacketRecord(k * period + hop * 0.01, *ends, "tcp", 60)
        for i, period in enumerate((10.0, 10.5, 11.0, 11.5, 12.0))
        for k in range(100)
        for hop, ends in enumerate(
            [(f"10.0.0.{i + 2}", 40000 + i, "10.0.0.1", 7), ("10.0.0.1", 7, f"10.0.0.{i + 2}", 40000 + i)]
        )
    ]
    records.sort(key=lambda r: r.ts)
    trace = tmp_path / "star.jsonl"
    write_records(records, str(trace))
    report = tmp_path / "report.json"
    main(["--quiet", "analyze", str(trace), "--out", str(report)])
    port = json.loads(report.read_text())["protocols"][0]["scada_port"]
    assert port != 7
    capsys.readouterr()
    caplog.set_level(logging.INFO, logger="scadascope")
    args = ["--quiet", "rank", str(trace), "--top", "3"]
    runs = []
    for _ in range(2):
        caplog.clear()
        assert main(args) == EXIT_OK
        runs.append((capsys.readouterr().out, [m for m in caplog.messages if m.startswith("summary: ")]))
    assert runs[0] == runs[1]
    assert runs[0][1] == [f"summary: 1 of top-5 communications touch port {port}; 5 ranked"]


@pytest.mark.parametrize(
    "which,content",
    [
        ("report", "[]"),
        ("truth", "[]"),
        ("report", '{"protocols": 5}'),
        ("report", '{"10.0.10.1": {"protocol": 20000, "role": "field_device"}}'),
    ],
    ids=["report-list", "truth-list", "protocols-int", "report-is-truth"],
)
def test_eval_malformed_shape_is_exit_2(tmp_path, d1, caplog, which, content):
    paths = {"report": tmp_path / "report.json", "truth": d1["truth"]}
    main(["--quiet", "analyze", str(d1["trace"]), "--out", str(paths["report"])])
    paths[which] = tmp_path / f"bad-{which}.json"
    paths[which].write_text(content)
    code = main(["--quiet", "eval", "--report", str(paths["report"]), "--truth", str(paths["truth"])])
    assert code == EXIT_INPUT_ERROR
    assert f"{paths[which]}: " in caplog.text


@pytest.mark.parametrize(
    "content,field",
    [
        ('{"protocols": [', "not valid JSON"),
        ('{"protocols": [{"scada_port": 20000, "field_devices": "10.0.10.1"}]}', "protocols[0].field_devices"),
        ('{"protocols": [{"scada_port": 20000, "master_servers": [1]}]}', "protocols[0].master_servers"),
        ('{"protocols": [{"field_devices": []}]}', "protocols[0] has no scada_port"),
        ('{"protocols": [{"scada_port": "20000"}]}', "protocols[0].scada_port"),
        ('{"protocols": [{"scada_port": true}]}', "protocols[0].scada_port"),
        ('{"protocols": [], "hmi": 7}', "hmi must be a string or null"),
    ],
    ids=["truncated", "devices-str", "masters-int", "no-port", "port-str", "port-bool", "hmi-int"],
)
def test_eval_bad_report_names_file_and_field(tmp_path, d1, capsys, caplog, content, field):
    report = tmp_path / "bad-report.json"
    report.write_text(content)
    code = main(["--quiet", "eval", "--report", str(report), "--truth", str(d1["truth"])])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().out == ""
    assert f"{report}: " in caplog.text and field in caplog.text


def test_missing_truth_is_exit_2(tmp_path, d1):
    report_path = tmp_path / "report.json"
    main(["--quiet", "analyze", str(d1["trace"]), "--out", str(report_path)])
    assert main(["--quiet", "eval", "--report", str(report_path), "--truth", "/nope.json"]) == EXIT_INPUT_ERROR


def test_bad_scenario_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"duration": -5, "seed": 1}')
    assert main(["--quiet", "synth", "--scenario", str(bad), "--out", str(tmp_path / "o.jsonl")]) == EXIT_INPUT_ERROR


def test_scenario_of_wrong_shape_is_exit_2_naming_the_key(tmp_path, caplog):
    bad = tmp_path / "bad.json"
    bad.write_text('{"duration": 60, "seed": 1, "master": 5}')
    assert main(["--quiet", "synth", "--scenario", str(bad), "--out", str(tmp_path / "o.jsonl")]) == EXIT_INPUT_ERROR
    assert "scenario.master: expected an object, got 5" in caplog.text


def test_scenario_that_is_not_json_is_exit_2_naming_the_file(tmp_path, caplog):
    bad = tmp_path / "bad.json"
    bad.write_text('{"duration": 60,\n}')
    assert main(["--quiet", "synth", "--scenario", str(bad), "--out", str(tmp_path / "o.jsonl")]) == EXIT_INPUT_ERROR
    assert f"{bad}: not valid JSON (Expecting property name" in caplog.text


@pytest.mark.parametrize("command", ["analyze", "stability", "synth", "eval"])
def test_too_deeply_nested_json_is_exit_2_naming_where(tmp_path, d1, caplog, command):
    deep = "[" * 200_000
    bad = tmp_path / "bad.json"
    if command in ("analyze", "stability"):
        # The last line, where the stability tail hint starts reading.
        trace = d1["trace"].read_text()
        bad.write_text(trace + deep + "\n")
        where = f"{bad}:{trace.count(chr(10)) + 1}: invalid JSON (nesting too deep)"
        args = [command, str(bad)]
    else:
        bad.write_text(deep)
        where = f"{bad}: not valid JSON ("
        args = (["synth", "--scenario", str(bad), "--out", str(tmp_path / "o.jsonl")] if command == "synth"
                else ["eval", "--report", str(bad), "--truth", str(d1["truth"])])
    assert main(["--quiet", *args]) == EXIT_INPUT_ERROR
    assert where in caplog.text
    assert not (tmp_path / "o.jsonl").exists()


def test_stability_command(tmp_path, capsys):
    config = dataset1_like(duration=5400.0, seed=504, fds=8)
    records, _ = generate(config)
    trace = tmp_path / "t.jsonl"
    write_records(records, str(trace))
    code = main(["--quiet", "stability", str(trace), "--fractions", "0.5,1.0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "fraction 1: matches full trace" in out
    assert "smallest stable fraction" in out


def test_stability_says_when_no_fraction_is_stable(d1, capsys):
    assert main(["--quiet", "stability", str(d1["trace"]), "--fractions", "0.001"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "fraction 0.001: differs\nno tested fraction reproduces the full-trace topology\n"
    )


def test_stability_refuses_a_bad_setting_before_reading_the_trace(d1, caplog, monkeypatch):
    def hint(*args):
        raise AssertionError("the trace was read before the settings were checked")

    monkeypatch.setattr(cli.ingest, "last_timestamp_hint", hint)
    assert main(["--quiet", "stability", str(d1["trace"]), "--t-comm", "0"]) == EXIT_INPUT_ERROR
    assert "t_comm must be positive and finite, got 0.0" in caplog.text


def test_inspect_refuses_a_bad_t_comm_before_writing_the_dump(d1, tmp_path, caplog):
    dump = tmp_path / "segments.jsonl"
    dump.write_text("kept\n")
    args = ["--quiet", "inspect", str(d1["trace"]), "--t-comm", "0", "--dump-segments", str(dump)]
    assert main(args) == EXIT_INPUT_ERROR
    assert "t_comm must be positive and finite, got 0.0" in caplog.text
    assert dump.read_text() == "kept\n"


@pytest.mark.parametrize(
    "args, threatened, message",
    [
        (["inspect", "{trace}", "--dump-segments", "{trace}"], "trace", "--dump-segments {trace} is the input trace"),
        (["analyze", "{trace}", "--out", "{trace}"], "trace", "--out {trace} is the input trace"),
        (["rank", "{trace}", "--out", "{trace}"], "trace", "--out {trace} is the input trace"),
        (["analyze", "{trace}", "--out", "{other}", "--dot", "{trace}"], "trace", "--dot {trace} is the input trace"),
        (["analyze", "{trace}", "--out", "{other}", "--dot", "{other}"], "other", "--dot {other} is the --out file"),
        (["synth", "--scenario", "{scenario}", "--out", "{scenario}"], "scenario",
         "--out {scenario} is the --scenario file"),
        (["synth", "--scenario", "{scenario}", "--out", "{other}", "--pcap", "{other}", "--truth", "{other}"],
         "other", "--pcap {other} is the --out file"),
    ],
    ids=["inspect-dump", "analyze-out", "rank-out", "analyze-dot", "analyze-dot-out", "synth-out", "synth-all-three"],
)
def test_no_output_overwrites_an_input_or_another_output(tmp_path, d1, caplog, args, threatened, message):
    paths = {"trace": tmp_path / "trace.jsonl", "scenario": tmp_path / "scenario.json", "other": tmp_path / "o"}
    paths["trace"].write_bytes(d1["trace"].read_bytes())
    paths["scenario"].write_bytes(d1["scenario"].read_bytes())
    paths["other"].write_text("keep\n")
    kept = paths[threatened].read_bytes()
    # A path named twice is spelled another way the second time, so the
    # paths are compared as files.
    spelled = {name: str(tmp_path / "." / path.name) for name, path in paths.items()}
    argv, named = [], set()
    for arg in args:
        name = arg.strip("{}")
        argv.append(spelled[name] if name in named else arg.format(**paths))
        named.add(name)
    assert main(["--quiet", *argv]) == EXIT_INPUT_ERROR
    assert message.format(**spelled) in caplog.text
    assert paths[threatened].read_bytes() == kept


def test_synth_refuses_two_outputs_on_one_new_path(tmp_path, d1, caplog):
    out = tmp_path / "same.jsonl"
    args = ["--quiet", "synth", "--scenario", str(d1["scenario"]), "--out", str(out), "--pcap", str(out)]
    assert main(args) == EXIT_INPUT_ERROR
    assert f"--pcap {out} is the --out file" in caplog.text
    assert not out.exists()


def test_outputs_that_are_not_regular_files_may_coincide(d1, capsys):
    # A device is not truncated, so two outputs may both be /dev/null.
    args = ["--quiet", "analyze", str(d1["trace"]), "--out", os.devnull, "--dot", os.devnull]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_inspect_keeps_the_dump_when_the_input_is_missing(tmp_path, caplog):
    dump = tmp_path / "segments.jsonl"
    dump.write_text("kept\n")
    args = ["--quiet", "inspect", str(tmp_path / "missing.jsonl"), "--dump-segments", str(dump)]
    assert main(args) == EXIT_INPUT_ERROR
    assert "No such file or directory" in caplog.text
    assert dump.read_text() == "kept\n"


def test_inspect_keeps_the_dump_when_the_first_line_is_bad(tmp_path, caplog):
    trace, dump = tmp_path / "bad.jsonl", tmp_path / "segments.jsonl"
    trace.write_text('{"ts": 1.0}\n')
    dump.write_text("kept\n")
    assert main(["--quiet", "inspect", str(trace), "--dump-segments", str(dump)]) == EXIT_INPUT_ERROR
    assert "bad.jsonl:1: missing or malformed field ('src_ip')" in caplog.text
    assert dump.read_text() == "kept\n"
    # An empty trace is read to its end, so it still dumps no segments.
    trace.write_text("")
    assert main(["--quiet", "inspect", str(trace), "--dump-segments", str(dump)]) == EXIT_OK
    assert dump.read_text() == ""


def _stability_run(capsys, caplog, *args):
    """Exit code, stdout and warnings of one ``stability`` run."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        code = main(["--quiet", "stability", *args, "--fractions", "0.0001,0.1,0.5,0.999,1.0"])
    return code, capsys.readouterr().out, caplog.text


@pytest.mark.parametrize("fmt", ["jsonl", "pcap"])
def test_stability_far_future_record_early(tmp_path, capsys, caplog, fmt):
    # The record is held to the end of the ordered stream, so the trace's
    # tail misses it.  The JSON-lines hint then names the wrong end and the
    # pass reads the trace again; the pcap header walk finds it.  Two later
    # last frames that the filter drops make the pcap guess wrong as well.
    records = list(generate(dataset1_like(duration=1800.0, seed=506, fds=4))[0])
    last = records[-1].ts
    records.insert(10, dataclasses.replace(records[10], ts=last + 1000.0))
    trace = tmp_path / f"t.{fmt}"
    (write_records if fmt == "jsonl" else write_pcap)(records, str(trace))
    code, out, log = _stability_run(capsys, caplog, str(trace))
    assert code == EXIT_OK
    assert out == _stability_run(capsys, caplog, str(trace), "--force-sort")[1]
    assert ("reading it again" in log) == (fmt == "jsonl")
    assert "fraction 0.0001: differs" in out and "fraction 1: matches" in out

    for ahead in (1500.0, 2000.0):
        records.append(PacketRecord(last + ahead, "10.0.9.1", 40000, "10.0.9.2", 123, "udp", 90))
    (write_records if fmt == "jsonl" else write_pcap)(records, str(trace))
    code, out, log = _stability_run(capsys, caplog, str(trace), "--filter-ports", "")
    assert code == EXIT_OK
    assert out == _stability_run(capsys, caplog, str(trace), "--filter-ports", "", "--force-sort")[1]
    assert "reading it again" in log


def test_stability_reads_crlf_lines(tmp_path, capsys, caplog):
    records = list(generate(dataset1_like(duration=1800.0, seed=507, fds=4))[0])
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    write_records(records, str(lf))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    code, out, log = _stability_run(capsys, caplog, str(crlf))
    assert code == EXIT_OK
    assert out == _stability_run(capsys, caplog, str(lf))[1]
    assert log == ""


def test_stability_malformed_last_line_is_exit_2(tmp_path, capsys, caplog):
    records = list(generate(dataset1_like(duration=600.0, seed=508, fds=4))[0])
    trace = tmp_path / "t.jsonl"
    write_records(records, str(trace))
    with open(trace, "a", encoding="utf-8") as fp:
        fp.write('{"ts": 1.0, "src_ip": "10.0.0.1"\n')
    code, out, log = _stability_run(capsys, caplog, str(trace))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert f"{trace}:{len(records) + 1}: invalid JSON" in log


@pytest.mark.parametrize("fmt", ["jsonl", "pcap"])
def test_stability_on_an_empty_trace(tmp_path, capsys, caplog, fmt):
    # Nothing to rank: every fraction matches the empty full-trace topology,
    # and the exit status says that the topology is low confidence.
    trace = tmp_path / f"empty.{fmt}"
    (write_records if fmt == "jsonl" else write_pcap)([], str(trace))
    if fmt == "pcap":
        assert trace.stat().st_size == 24  # the global header alone
    code, out, log = _stability_run(capsys, caplog, str(trace))
    assert code == EXIT_LOW_CONFIDENCE
    assert "no communication to rank" in log
    assert out.splitlines() == [
        "fraction 0.0001: matches full trace",
        "fraction 0.1: matches full trace",
        "fraction 0.5: matches full trace",
        "fraction 0.999: matches full trace",
        "fraction 1: matches full trace",
        "smallest stable fraction: 0.0001",
    ]


@pytest.mark.parametrize("fmt", ["jsonl", "pcap"])
def test_stability_exits_3_where_analyze_does(tmp_path, capsys, caplog, fmt):
    # 50 UDP records, and the filter drops every packet that is not TCP.
    records = [
        PacketRecord(1000.0 + i, "10.0.0.1", 40000, "10.0.0.2", 6000, "udp", 90) for i in range(50)
    ]
    trace = tmp_path / f"udp.{fmt}"
    (write_records if fmt == "jsonl" else write_pcap)(records, str(trace))
    assert main(["--quiet", "analyze", str(trace), "--filter-ports", "6000"]) == EXIT_LOW_CONFIDENCE
    capsys.readouterr()
    code, out, log = _stability_run(capsys, caplog, str(trace), "--filter-ports", "6000")
    assert code == EXIT_LOW_CONFIDENCE
    assert "no communication to rank" in log
    assert out.splitlines()[-1] == "smallest stable fraction: 0.0001"


def test_inspect_counts_and_segment_dump(tmp_path, d1, capsys):
    dump = tmp_path / "segs.jsonl"
    code = main(["--quiet", "inspect", str(d1["trace"]), "--dump-segments", str(dump)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "records:" in out and "segments" in out
    first = json.loads(dump.read_text().splitlines()[0])
    assert {"key", "start", "end", "size", "initiator", "packets"} <= set(first)


def test_inspect_reads_a_negative_zero_ts_as_zero(tmp_path, capsys):
    tail = '"src_ip":"10.0.0.1","src_port":20000,"dst_ip":"10.0.0.2","dst_port":51382,"proto":"tcp","size":340}'
    trace, dump = tmp_path / "t.jsonl", tmp_path / "segs.jsonl"
    trace.write_text(f'{{"ts":-0.0,{tail}\n{{"ts":1.0,{tail}\n')
    assert main(["--quiet", "inspect", str(trace), "--dump-segments", str(dump)]) == EXIT_OK
    assert "time span: 0.000000 .. 1.000000 (1.000s)" in capsys.readouterr().out
    first = json.loads(dump.read_text().splitlines()[0])
    assert [math.copysign(1.0, first[name]) for name in ("start", "end")] == [1.0, 1.0]


def test_inspect_with_filter_reports_drops(tmp_path, capsys):
    records, _ = generate(dataset1_like(duration=300.0, seed=505, fds=3))
    trace = tmp_path / "t.jsonl"
    write_records(records, str(trace))
    code = main(["--quiet", "inspect", str(trace), "--filter-ports", ""])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "filter: kept" in out


def test_filter_flags_change_analysis_input(tmp_path, d1):
    # ntp port 123 chatter is dropped when the default filter is requested
    out_plain = tmp_path / "plain.json"
    out_filtered = tmp_path / "filtered.json"
    main(["--quiet", "analyze", str(d1["trace"]), "--out", str(out_plain)])
    main(["--quiet", "analyze", str(d1["trace"]), "--filter-ports", "", "--out", str(out_filtered)])
    plain = json.loads(out_plain.read_text())
    filtered = json.loads(out_filtered.read_text())
    assert filtered["manifest"]["records"] < plain["manifest"]["records"]
    assert filtered["protocols"][0]["scada_port"] == 20000
    # The manifest counts the records that reach the analysis: every record
    # of the trace, or those the filter kept.
    records = list(read_records(str(d1["trace"])))
    fstats = FilterStats()
    list(filter_packets(iter(records), FilterConfig(), fstats))
    assert plain["manifest"]["records"] == len(records)
    assert filtered["manifest"]["records"] == fstats.kept


@pytest.mark.parametrize(
    "ports,flags", [((), []), ((6000,), ["--filter-ports", "6000"])], ids=["alone", "plus-6000"]
)
def test_no_default_filter_starts_from_no_ports(tmp_path, d1, ports, flags):
    out = tmp_path / "r.json"
    args = ["--quiet", "analyze", str(d1["trace"]), "--no-default-filter", *flags, "--out", str(out)]
    assert main(args) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["manifest"]["config"]["filter_ports"] == list(ports)
    # Only non-TCP records and those on the given ports are dropped.
    fstats = FilterStats()
    list(filter_packets(read_records(str(d1["trace"])), FilterConfig(frozenset(ports)), fstats))
    assert report["metrics"]["filter"] == asdict(fstats)
    assert report["manifest"]["records"] == fstats.kept
    assert fstats.dropped > 0


def test_pcap_input_accepted(tmp_path, capsys):
    records = list(generate(dataset1_like(duration=300.0, seed=506, fds=3))[0])
    trace = tmp_path / "t.pcap"
    write_pcap(records, str(trace))
    code = main(["--quiet", "inspect", str(trace)])
    assert code == EXIT_OK
    assert f"records: {len(records)}" in capsys.readouterr().out


def test_analyze_report_counts_skipped_frames(tmp_path):
    trace = tmp_path / "t.pcap"
    write_pcap(generate(dataset1_like(duration=600.0, seed=508, fds=3))[0], str(trace))
    arp = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 46
    with open(trace, "ab") as fp:
        fp.write(struct.pack("<IIII", 700, 0, len(arp), len(arp)) + arp)
    report = tmp_path / "r.json"
    assert main(["--quiet", "analyze", str(trace), "--out", str(report)]) == EXIT_OK
    metrics = json.loads(report.read_text())["metrics"]
    assert metrics["ingest"]["skipped"] == metrics["ingest"]["non_ipv4"] == 1
    assert metrics["ingest"]["yielded"] == metrics["records"]
    assert metrics["filter"] is None
    main(["--quiet", "analyze", str(trace), "--filter-ports", "", "--out", str(report)])
    metrics = json.loads(report.read_text())["metrics"]
    assert metrics["filter"]["kept"] == metrics["records"]
    assert metrics["filter"]["kept"] + metrics["filter"]["dropped"] == metrics["ingest"]["yielded"]


def test_inspect_takes_no_ranking_flags(d1, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", "inspect", str(d1["trace"]), "--num-protocols", "1"])
    assert exc.value.code == EXIT_INPUT_ERROR
    for command in ("rank", "analyze", "stability", "inspect"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--log-base" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["rank", "analyze", "stability"])
def test_pr_cap_is_not_a_flag(d1, capsys, command):
    # The periodicity of a zero variance is the constant segmentation.PR_CAP.
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", command, str(d1["trace"]), "--pr-cap", "1"])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --pr-cap" in capsys.readouterr().err


def test_inspect_prints_skip_reasons(tmp_path, capsys):
    # One TCP frame, the same frame behind an 802.1Q tag, and an ARP frame.
    trace = tmp_path / "t.pcap"
    write_pcap([PacketRecord(1.0, "10.0.0.1", 20000, "10.0.0.2", 502, "tcp", 60)], str(trace))
    blob = trace.read_bytes()
    frame = blob[40:]
    tagged = frame[:12] + b"\x81\x00\x00\x07" + frame[12:]
    arp = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 46
    for i, extra in enumerate((tagged, arp), start=2):
        blob += struct.pack("<IIII", i, 0, len(extra), len(extra)) + extra
    trace.write_bytes(blob)
    assert main(["--quiet", "inspect", str(trace)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "records: 2",
        "skipped frames: 1",
        "skip reasons: short 0, non_ipv4 1, fragment 0, transport 0",
    ]


@pytest.mark.parametrize("quiet", [False, True])
def test_progress_line_and_quiet(tmp_path, quiet):
    # A fresh interpreter, so main() configures logging as it does from a shell.
    records, _ = generate(dataset1_like(duration=300.0, seed=507, fds=3))
    trace = tmp_path / "t.jsonl"
    count = write_records(records, str(trace))
    argv = (["--quiet"] if quiet else []) + ["analyze", str(trace), "--out", str(tmp_path / "r.json")]
    script = (
        "import sys; import scadascope.segmentation as segmentation; segmentation.PROGRESS_EVERY = 300; "
        f"from scadascope.cli import main; sys.exit(main({argv!r}))"
    )
    src = str(Path(scadascope.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if "processed" in line]
    expected = [f"INFO scadascope.segmentation: processed {n} records" for n in range(300, count + 1, 300)]
    assert len(expected) >= 2
    assert lines == ([] if quiet else expected)


def test_cli_import_leaves_the_generator_unloaded():
    # A fresh interpreter: this one has imported the generator for the fixtures.
    script = "import sys, scadascope.cli; print('scadascope.synth' in sys.modules)"
    src = str(Path(scadascope.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_hashlib_unloaded_and_analyze_hashes_its_input(tmp_path, d1):
    # hashlib maps OpenSSL's libcrypto, and only analyze hashes a file.  -S
    # keeps site hooks, which might import it themselves, out of the check.
    script = "import sys, scadascope.cli; print('hashlib' in sys.modules)"
    src = str(Path(scadascope.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    report = tmp_path / "report.json"
    assert main(["--quiet", "analyze", str(d1["trace"]), "--out", str(report)]) == EXIT_OK
    want = hashlib.sha256(d1["trace"].read_bytes()).hexdigest()
    assert json.loads(report.read_text())["manifest"]["input_sha256"] == want


def test_analyze_collects_fully_between_the_release_and_the_hash(tmp_path, d1, monkeypatch):
    # Released blocks left in CPython's free lists keep pymalloc's arenas
    # mapped until a full collection empties the lists; only then does
    # libcrypto, mapped by the hash, reuse memory the OS has back.
    def alive():
        return sum(isinstance(obj, (FtCell, RankedFt)) for obj in gc.get_objects())

    events = []
    analyze_records, sha256_of = cli.analyze_records, cli._sha256_of

    def analyzed(*args, **kwargs):
        result = analyze_records(*args, **kwargs)
        events.append("analyzed")
        return result

    def hashed(path):
        events.append(f"hash(alive={alive() - baseline})")
        return sha256_of(path)

    def collecting(phase, info):
        if phase == "start" and info["generation"] == 2 and events:
            events.append("full-collection")

    monkeypatch.setattr(cli, "analyze_records", analyzed)
    monkeypatch.setattr(cli, "_sha256_of", hashed)
    enabled = gc.isenabled()
    gc.collect()
    baseline = alive()
    gc.disable()  # no automatic collection stands in for analyze's own
    gc.callbacks.append(collecting)
    try:
        assert main(["--quiet", "analyze", str(d1["trace"]), "--out", str(tmp_path / "r.json")]) == EXIT_OK
    finally:
        gc.callbacks.remove(collecting)
        if enabled:
            gc.enable()
    assert events == ["analyzed", "full-collection", "hash(alive=0)"]


@pytest.fixture(scope="module")
def churn_traces(tmp_path_factory):
    """The churn scenario at a length and at four times it: as JSON lines and
    pcap, and its scenario file, ground truth and ``analyze`` report."""
    root = tmp_path_factory.mktemp("churn")
    traces = {}
    for length, duration in (("short", 150.0), ("long", 600.0)):
        config = churn_like(duration)
        for fmt, write in (("jsonl", write_records), ("pcap", write_pcap)):
            path = root / f"{length}.{fmt}"
            write(generate(config)[0], str(path))
            traces[length, fmt] = path
        traces[length, "scenario"] = root / f"{length}.scenario.json"
        traces[length, "scenario"].write_text(json.dumps(asdict(config)))
        traces[length, "truth"] = root / f"{length}.truth.json"
        traces[length, "truth"].write_text(json.dumps(generate(config)[1].to_dict()))
        traces[length, "report"] = root / f"{length}.report.json"
        code = main(["--quiet", "analyze", str(traces[length, "pcap"]), "--out", str(traces[length, "report"])])
        assert code in (EXIT_OK, EXIT_LOW_CONFIDENCE)
    return traces


# The unreachable objects a fresh interpreter finds when ``main(argv)`` has
# run with the collector off, by type.  DEBUG_SAVEALL keeps them in
# gc.garbage, where they can be counted, instead of freeing them.
_GARBAGE_SCRIPT = """
import collections, gc, json, sys
from scadascope.cli import main
gc.collect()
gc.disable()
gc.set_debug(gc.DEBUG_SAVEALL)
code = main(json.loads(sys.argv[1]))
gc.collect()
print(json.dumps([code, sorted(collections.Counter(type(obj).__qualname__ for obj in gc.garbage).items())]))
"""


@pytest.mark.parametrize(
    "args,most",
    [
        (["analyze", "{pcap}", "--filter-ports", "6000", "--dot", "{out}.dot", "--out", "{out}.json"], 1000),
        (["rank", "{jsonl}"], 1000),
        (["stability", "{pcap}"], 1000),
        (["stability", "{jsonl}", "--force-sort"], 1000),
        (["inspect", "{jsonl}", "--dump-segments", "{out}.segments"], 1000),
        # The generator's sources are closures that refer to themselves: a
        # fixed number per scenario, whatever its duration.
        (["synth", "--scenario", "{scenario}", "--out", "{out}.jsonl", "--pcap", "{out}.pcap", "--truth", "{out}.truth"],
         5000),
        (["eval", "--report", "{report}", "--truth", "{truth}"], 1000),
    ],
    ids=["analyze-pcap", "rank-jsonl", "stability-pcap", "stability-force-sort-jsonl", "inspect-jsonl", "synth", "eval"],
)
def test_no_command_makes_cyclic_garbage_that_grows_with_the_trace(tmp_path, churn_traces, args, most):
    # Commands run with the collector off (see ``main``), which is safe only
    # while the cycles they leave behind do not grow with the trace: today
    # argparse's parser graph, in analyze one JSONEncoder closure, and in
    # synth the generator's sources.
    src = str(Path(scadascope.__file__).resolve().parents[1])
    garbage = {}
    for length in ("short", "long"):
        paths = {kind: str(path) for (at, kind), path in churn_traces.items() if at == length}
        argv = ["--quiet", *(a.format(out=str(tmp_path / length), **paths) for a in args)]
        proc = subprocess.run(
            [sys.executable, "-c", _GARBAGE_SCRIPT, json.dumps(argv)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        code, garbage[length] = json.loads(proc.stdout.splitlines()[-1])
        assert code == EXIT_OK, proc.stderr
    assert garbage["short"] == garbage["long"]
    assert sum(n for _, n in garbage["long"]) < most


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, d1, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["--quiet", "inspect", str(d1["trace"])]) == EXIT_OK
        assert gc.isenabled() is enabled
        assert main(["--quiet", "inspect", str(tmp_path / "missing.jsonl")]) == EXIT_INPUT_ERROR
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_stability_runs_no_automatic_collection(churn_traces, monkeypatch):
    # stability makes no explicit collection, so any collection while it
    # runs is an automatic one, which the collector being off rules out.
    collections = []
    running = False
    stability = cli.cmd_stability

    def watched(args):
        nonlocal running
        running = True
        try:
            return stability(args)
        finally:
            running = False

    def collecting(phase, info):
        if phase == "start" and running:
            collections.append(info["generation"])

    monkeypatch.setattr(cli, "cmd_stability", watched)
    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(collecting)
    try:
        assert main(["--quiet", "stability", str(churn_traces["long", "pcap"])]) == EXIT_OK
    finally:
        gc.callbacks.remove(collecting)
        if not was:
            gc.disable()
    assert collections == []


def test_input_hash_holds_one_buffer(tmp_path):
    # analyze hashes its input after releasing the table and the ranking;
    # the hash adds one buffer to the process, not a read per chunk.
    path = tmp_path / "blob"
    data = bytes(range(256)) * (4 << 12)  # 4 MiB
    path.write_bytes(data)
    tracemalloc.start()
    try:
        got = cli._sha256_of(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == hashlib.sha256(data).hexdigest()
    assert peak <= 2 * cli._HASH_BUFFER_BYTES, peak


@pytest.mark.parametrize("command", ["rank", "analyze", "stability"])
def test_flags_build_the_one_config(tmp_path, d1, monkeypatch, command):
    target = "prefix_stability" if command == "stability" else "analyze_records"
    original, seen = getattr(cli, target), []

    def capturing(*args, inference_config, **kwargs):
        seen.append(inference_config)
        return original(*args, inference_config=inference_config, **kwargs)

    monkeypatch.setattr(cli, target, capturing)
    flags = ["--t-comm", "2.5"]
    want = {"t_comm": 2.5}
    if command != "rank":
        flags += ["--num-protocols", "2", "--fd-degree-threshold", "7", "--scada-fraction", "0.4", "--three-layer"]
        want.update(num_scada_protocols=2, fd_degree_threshold=7, scada_fraction_threshold=0.4, three_layer=True)
    out = tmp_path / "report.json"
    if command != "stability":
        flags += ["--out", str(out)]
    assert main(["--quiet", command, str(d1["trace"]), *flags]) in (EXIT_OK, EXIT_LOW_CONFIDENCE)
    [config] = seen
    assert type(config) is InferenceConfig
    assert set(want) <= {field.name for field in fields(config)}
    defaults = InferenceConfig()
    for field in fields(InferenceConfig):
        assert getattr(config, field.name) == want.get(field.name, getattr(defaults, field.name)), field.name
    if command == "analyze":
        assert json.loads(out.read_text())["manifest"]["config"] == {"filter_ports": None, **asdict(config)}


@pytest.mark.parametrize("command", ["analyze", "stability"])
def test_config_flags_keep_their_metavars(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "--num-protocols NUM_PROTOCOLS" in out
    assert "--scada-fraction SCADA_FRACTION" in out
