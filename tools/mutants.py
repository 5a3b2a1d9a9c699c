#!/usr/bin/env python3
"""Mutation checks: break one rule of the analysis, the generator or the CLI on purpose, and see a test fail.

Each mutant names a file under ``src/``, an exact snippet of it, the
replacement and the tests that must kill it.  For each mutant the tool copies
``src/`` to a temporary directory, applies the mutant there and runs the named
tests with ``PYTHONPATH`` pointing at the copy.  A mutant is killed when pytest
reports a failing test (exit status 1); it has survived when the tests pass.

The killers are reference and invariance tests, not ``tests/test_golden.py``:
a changed digest catches every mutant but does not say which rule broke.

Run from anywhere, with pytest and hypothesis installed:

    python3 tools/mutants.py

Exit status: 0 when every mutant is killed; 1 when one survives; 2 when a
snippet is missing from its file or appears in it more than once, or when
the tests could not run (a collection error, no test collected, the copy not
imported).  Code that moves must take its mutants along in the same change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    killers: tuple[str, ...]


_CELL_REFERENCE = (
    "tests/test_features.py::test_cell_features_match_the_two_pass_reference",
    "tests/test_features.py::test_rank_matches_reference_features",
)
_LONG_CELL_REFERENCE = ("tests/test_features.py::test_long_cell_features_match_the_two_pass_reference",)
_TABLE_REFERENCE = (
    "tests/test_segmentation.py::test_random_scenarios_match_reference",
    "tests/test_segmentation.py::test_aggregate_records_prefix_tables_match_reruns",
)
_ALGORITHM1_REFERENCE = (
    "tests/test_inference.py::test_algorithm1_matches_reference",
    "tests/test_inference.py::test_algorithm1_matches_reference_on_random_scenarios",
)
_RELEASE_BEFORE_HASH = ("tests/test_cli.py::test_analyze_collects_fully_between_the_release_and_the_hash",)
_DOT_REFERENCE = ("tests/test_inference.py::test_dot_edges_match_the_reference_segment_counts",)

MUTANTS = (
    Mutant(
        "pR-sample-variance",
        "scadascope/segmentation.py",
        "var = (cell.t2 + cell.s2 - s1 * s1 / k) / k",
        "var = (cell.t2 + cell.s2 - s1 * s1 / k) / (k - 1)",
        _CELL_REFERENCE,
    ),
    Mutant(
        "dR-log-of-gaps",
        "scadascope/segmentation.py",
        "dR = (total / SECONDS_PER_HOUR) * math.log(n)",
        "dR = (total / SECONDS_PER_HOUR) * math.log(n - 1)",
        _CELL_REFERENCE,
    ),
    Mutant(
        "zero-variance-not-capped",
        "scadascope/segmentation.py",
        "return PR_CAP, dR",
        "return 0.0, dR",
        ("tests/test_features.py::test_periodicity_zero_variance_capped",),
    ),
    Mutant(
        "cell-no-first-gap-shift",
        "scadascope/segmentation.py",
        "d = gap - cell.K",
        "d = gap",
        _TABLE_REFERENCE,
    ),
    Mutant(
        "cell-never-recentred",
        "scadascope/segmentation.py",
        "    s1 = cell.t1 + cell.s1\n    offset = s1 / k\n",
        "    return\n",
        _LONG_CELL_REFERENCE,
    ),
    Mutant(
        "long-cell-never-closes-a-block",
        "scadascope/segmentation.py",
        "        elif not k % LONG_CELL:\n",
        "        elif False:\n",
        _LONG_CELL_REFERENCE,
    ),
    Mutant(
        "prefix-shares-an-open-cell",
        "scadascope/segmentation.py",
        "prefix[ft] = replace(cell)",
        "prefix[ft] = cell",
        ("tests/test_segmentation.py::test_aggregate_records_prefix_tables_match_reruns",),
    ),
    Mutant(
        "gap-rule-closes-above-t_comm",
        "scadascope/segmentation.py",
        "if ts - seg[6] < t_comm:",
        "if ts - seg[6] <= t_comm:",
        (
            "tests/test_segmentation.py::test_aggregate_records_prefix_tables_match_reruns",
            "tests/test_segmentation.py::test_property_matches_reference",
        ),
    ),
    Mutant(
        "segment-opened-by-responder",
        "scadascope/segmentation.py",
        "if rec.src_port != seg[1] or rec.src_ip != seg[0]:",
        "if rec.src_port == seg[1] and rec.src_ip == seg[0]:",
        (
            "tests/test_segmentation.py::test_bidirectional_packets_share_segment",
            "tests/test_segmentation.py::test_oracle_equivalence_on_synth_trace",
        ),
    ),
    Mutant(
        "uR-roles-swapped",
        "scadascope/features.py",
        "        pairs_as_src[src_port].add(pair)\n        pairs_as_dst[dst_port].add(pair)\n",
        "        pairs_as_src[dst_port].add(pair)\n        pairs_as_dst[src_port].add(pair)\n",
        (
            "tests/test_features.py::test_popularity_counts_each_port_in_its_own_role",
            "tests/test_features.py::test_rank_matches_reference_features",
            "tests/test_features.py::test_random_scenarios_feature_parity_with_reference",
        ),
    ),
    Mutant(
        "rank-tie-run-unsorted",
        "scadascope/features.py",
        "            run.sort(key=by_key)\n",
        "",
        (
            "tests/test_features.py::test_rank_order_is_descending_f_then_pR_n_then_key",
            "tests/test_features.py::test_rank_column_of_zeros_normalizes_to_positive_zero",
            "tests/test_inference.py::test_algorithm1_matches_reference",
        ),
    ),
    Mutant(
        "prefix-cutoff-takes-equal-time",
        "scadascope/segmentation.py",
        "            if ts > cut:\n                passed = 0\n                while ts > cut:\n",
        "            if ts >= cut:\n                passed = 0\n                while ts >= cut:\n",
        (
            "tests/test_segmentation.py::test_aggregate_records_prefix_tables_match_reruns",
            "tests/test_inference.py::test_prefix_stability_matches_prefix_reruns",
        ),
    ),
    Mutant(
        "memo-stops-learning-when-full",
        "scadascope/ingest.py",
        "                    if len(tails) >= _TAIL_MEMO_ENTRIES:\n                        tails.clear()\n"
        "                    tails[tail] = ",
        "                    if len(tails) < _TAIL_MEMO_ENTRIES:\n                        tails[tail] = ",
        ("tests/test_ingest.py::test_read_records_keeps_learning_tails_once_the_memo_is_full",),
    ),
    Mutant(
        "one-vlan-tag",
        "scadascope/ingest.py",
        "for _ in range(2):",
        "for _ in range(1):",
        ("tests/test_ingest.py::test_read_pcap_matches_reference",),
    ),
    Mutant(
        "plain-frame-any-ihl",
        "scadascope/ingest.py",
        "ver_ihl == 0x45",
        "ver_ihl >> 4 == 4",
        ("tests/test_ingest.py::test_read_pcap_matches_reference",),
    ),
    Mutant(
        "plain-frame-any-fragment",
        "scadascope/ingest.py",
        " and not frag & 0x1FFF",
        "",
        ("tests/test_ingest.py::test_read_pcap_matches_reference",),
    ),
    Mutant(
        "plain-frame-from-34-bytes",
        "scadascope/ingest.py",
        "if caplen >= 38:",
        "if caplen >= 34:",
        ("tests/test_ingest.py::test_read_pcap_matches_reference",),
    ),
    Mutant(
        "tagged-frame-header-untagged",
        "scadascope/ingest.py",
        "ip = frame + 18",
        "ip = frame + 14",
        ("tests/test_ingest.py::test_read_pcap_matches_reference",),
    ),
    Mutant(
        "tagged-frame-from-38-bytes",
        "scadascope/ingest.py",
        "if ethertype == ETHERTYPE_8021Q and caplen >= 42:",
        "if ethertype == ETHERTYPE_8021Q and caplen >= 38:",
        ("tests/test_ingest.py::test_read_pcap_matches_reference",),
    ),
    Mutant(
        "reorder-window-holds-its-edge",
        "scadascope/ingest.py",
        "while held and high - held[0].ts >= window:",
        "while held and high - held[0].ts > window:",
        ("tests/test_ingest.py::test_ensure_time_order_matches_reference",),
    ),
    Mutant(
        "hint-stops-at-first-older-line",
        "scadascope/ingest.py",
        "        elif newest - rec.ts >= REORDER_WINDOW:\n            break\n",
        "        else:\n            break\n",
        ("tests/test_ingest.py::test_last_timestamp_hint_reads_past_late_lines_within_the_window",),
    ),
    Mutant(
        "pcap-tail-starts-at-last-mark",
        "scadascope/ingest.py",
        "if ts < latest - REORDER_WINDOW:\n            start = offset\n",
        "start = offset\n",
        ("tests/test_ingest.py::test_last_timestamp_hint_starts_at_the_last_mark_a_window_before_the_latest",),
    ),
    Mutant(
        "progress-line-dropped",
        "scadascope/segmentation.py",
        '                log.info("processed %d records", count)\n',
        "                pass\n",
        (
            "tests/test_inference.py::test_record_count_matches_input",
            "tests/test_cli.py::test_progress_line_and_quiet",
        ),
    ),
    Mutant(
        "port-side-degree-flipped",
        "scadascope/inference.py",
        "    if deg_src < deg_dst:\n        return key.src_port, key.src_ip, False\n"
        "    if deg_dst < deg_src:\n        return key.dst_port, key.dst_ip, False\n",
        "    if deg_src > deg_dst:\n        return key.src_port, key.src_ip, False\n"
        "    if deg_dst > deg_src:\n        return key.dst_port, key.dst_ip, False\n",
        _ALGORITHM1_REFERENCE,
    ),
    Mutant(
        "share-threshold-admits-equal",
        "scadascope/inference.py",
        "if prof.scada_fraction(scada_port) <= config.scada_fraction_threshold:",
        "if prof.scada_fraction(scada_port) < config.scada_fraction_threshold:",
        _ALGORITHM1_REFERENCE,
    ),
    Mutant(
        "no-port-strip",
        "scadascope/inference.py",
        "r for r in working if port != r.key.src_port and port != r.key.dst_port",
        "r for r in working",
        _ALGORITHM1_REFERENCE,
    ),
    Mutant(
        "degree-tie-to-higher-port",
        "scadascope/inference.py",
        "if key.src_port <= key.dst_port:",
        "if key.src_port >= key.dst_port:",
        _ALGORITHM1_REFERENCE,
    ),
    Mutant(
        "master-ignores-port",
        "scadascope/inference.py",
        "        if key.src_port != scada_port and key.dst_port != scada_port:\n            continue\n",
        "",
        _ALGORITHM1_REFERENCE,
    ),
    Mutant(
        "hmi-qty-ignores-size",
        "scadascope/inference.py",
        "+ e.n * key.seg_size",
        "+ e.n",
        _ALGORITHM1_REFERENCE,
    ),
    Mutant(
        "hmi-tie-ignores-address",
        "scadascope/inference.py",
        "key=lambda t: (-t[0], t[1])",
        "key=lambda t: -t[0]",
        _ALGORITHM1_REFERENCE,
    ),
    Mutant(
        "dot-edges-ignore-port",
        "scadascope/inference.py",
        "            if port != key.src_port and port != key.dst_port:\n                continue\n",
        "",
        _DOT_REFERENCE,
    ),
    Mutant(
        "dot-edge-counts-5-tuples",
        "scadascope/inference.py",
        "seg_counts.get(pair, 0) + e.n",
        "seg_counts.get(pair, 0) + 1",
        _DOT_REFERENCE,
    ),
    Mutant(
        "empty-claim-precision-one",
        "scadascope/inference.py",
        "precision = 1.0 if not actual else 0.0",
        "precision = 1.0",
        ("tests/test_inference.py::test_evaluate_nothing_claimed_but_something_to_find_scores_zero",),
    ),
    Mutant(
        "ipv4-checksum-unfolded",
        "scadascope/synth.py",
        "            while checksum > 0xFFFF:\n                checksum = (checksum & 0xFFFF) + (checksum >> 16)\n",
        "",
        ("tests/test_synth.py::test_every_ipv4_header_checksums_to_ffff",),
    ),
    Mutant(
        "address-block-allows-host-255",
        "scadascope/synth.py",
        "if n > _LAST_HOST:",
        "if n > _LAST_HOST + 1:",
        ("tests/test_synth.py::test_validation_bounds_each_auto_numbered_block",),
    ),
    Mutant(
        "tied-record-yielded-at-once",
        "scadascope/synth.py",
        "                if heap and heap[0][0] == t_us:\n",
        "                if False:\n",
        ("tests/test_synth.py::test_a_record_due_with_a_waiting_event_comes_after_it",),
    ),
    Mutant(
        "no-collection-before-hash",
        "scadascope/cli.py",
        "    gc.collect()\n",
        "",
        _RELEASE_BEFORE_HASH,
    ),
    Mutant(
        "collector-left-on",
        "scadascope/cli.py",
        "    gc.disable()\n",
        "",
        ("tests/test_cli.py::test_stability_runs_no_automatic_collection",),
    ),
    Mutant(
        "hash-before-release",
        "scadascope/cli.py",
        "    del result  # the ranking, before the hash loads OpenSSL\n",
        "",
        _RELEASE_BEFORE_HASH,
    ),
)


class MutantError(Exception):
    """A mutant that cannot be applied or whose tests cannot run."""


def mutated(mutant: Mutant, src: Path) -> str:
    """The mutant's file under ``src`` with its snippet replaced; it must occur once."""
    text = (src / mutant.path).read_text(encoding="utf-8")
    found = text.count(mutant.snippet)
    if found != 1:
        raise MutantError(f"{mutant.name}: snippet found {found} times in src/{mutant.path}, not once")
    return text.replace(mutant.snippet, mutant.replacement)


def run(mutant: Mutant) -> bool:
    """Whether the mutant's tests kill it, run against a mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.path).write_text(mutated(mutant, src), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import scadascope; print(scadascope.__file__)"],
            env=env, capture_output=True, text=True,
        )
        if where.returncode != 0 or not where.stdout.startswith(str(src)):
            raise MutantError(
                f"{mutant.name}: the mutated copy is not the package imported: {where.stdout}{where.stderr}"
            )
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=mutants",
             *mutant.killers],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if tests.returncode == 0:
        return False
    if tests.returncode == 1:
        return True
    raise MutantError(f"{mutant.name}: pytest exited {tests.returncode}:\n{tests.stdout}{tests.stderr}")


def main() -> int:
    survived = []
    started = time.monotonic()
    try:
        for mutant in MUTANTS:  # every snippet checked before any test runs
            mutated(mutant, ROOT / "src")
        for mutant in MUTANTS:
            t0 = time.monotonic()
            killed = run(mutant)
            print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name} ({time.monotonic() - t0:.1f}s)", flush=True)
            if not killed:
                survived.append(mutant.name)
    except MutantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed in {time.monotonic() - started:.0f}s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
