"""Shared scenario and 5-tuple table builders for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from scadascope.features import RankedFt, build_device_profiles, rank
from scadascope.segmentation import FtCell, aggregate_ft, periodicity_durability
from scadascope.synth import (
    MasterConfig,
    NoiseConfig,
    PeripheralSpec,
    ScadaGroup,
    ScenarioConfig,
    load_scenario,
)

from reference import ref_durability, ref_periodicity

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"


def cell_of(starts) -> FtCell:
    """The table's cell of one 5-tuple with these segment start times, in order."""
    segments = (("a", 1, "b", 2, 1, t, t, 1) for t in starts)
    (cell,) = aggregate_ft(segments).values()
    return cell


def rank_table(table) -> list[RankedFt]:
    """``rank`` of a 5-tuple table, with the device table built from it."""
    return rank(table, build_device_profiles(table))


def assert_cells_match(table, ref_table) -> None:
    """Each cell of ``table`` gives the count, the last start, pR and dR that
    the reference computes in two passes from its start times in ``ref_table``."""
    assert set(table) == set(ref_table)
    for key, cell in table.items():
        starts = ref_table[key]
        assert (cell.n, cell.last) == (len(starts), starts[-1]), key
        want = (ref_periodicity(starts), ref_durability(starts))
        assert periodicity_durability(cell) == pytest.approx(want, rel=1e-12, abs=1e-300), key


def _benchmark_scenario(name: str, duration: float, seed: int) -> ScenarioConfig:
    """The scenario file ``SCENARIO_DIR/<name>.json`` at another length and seed."""
    config = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    config.duration, config.seed = duration, seed
    return config


def dataset1_like(duration: float = 86400.0, seed: int = 101, fds: int = 49) -> ScenarioConfig:
    """The benchmark's day scenario (one protocol, three layers, chatter) with ``fds`` field devices."""
    config = _benchmark_scenario("day", duration, seed)
    config.scada_groups[0].num_field_devices = fds
    return config


def churn_like(duration: float = 1800.0, seed: int = 505) -> ScenarioConfig:
    """The benchmark's churn scenario: the master reconnects 720 times a day, so the 5-tuple table grows."""
    return _benchmark_scenario("churn", duration, seed)


def dataset2_like(duration: float = 21600.0, seed: int = 202) -> ScenarioConfig:
    """Two proprietary protocols sharing one master, two layers."""
    return ScenarioConfig(
        duration=duration,
        seed=seed,
        scada_groups=[
            ScadaGroup(
                port=2404,
                num_field_devices=22,
                poll_mean=8.0,
                poll_jitter_stddev=1.0,
                object_sizes=[686, 288],
            ),
            ScadaGroup(
                port=44818,
                num_field_devices=4,
                poll_mean=12.0,
                poll_jitter_stddev=1.5,
                object_sizes=[1086, 1514],
            ),
        ],
        master=MasterConfig(reconnect_rate=6.0),
        layers=2,
        peripherals=[
            PeripheralSpec("heartbeat", 5.0, 66),
            PeripheralSpec("ntp", 64.0, 180),
            PeripheralSpec("x11", 7.0, 180),
            PeripheralSpec("netbios", 30.0, 92),
        ],
        noise=NoiseConfig(nonresponder_retry=True),
    )


def month_like(seed: int = 303, days: int = 30) -> ScenarioConfig:
    """The benchmark's month scenario: a long, slow deployment for prefix-stability runs."""
    return _benchmark_scenario("month", days * 86400.0, seed)


def office_like(duration: float = 10800.0, seed: int = 404) -> ScenarioConfig:
    """Pure office chatter on shared hosts; no device may dominate one port."""
    a, b, s = "10.0.200.10", "10.0.200.11", "10.0.200.12"
    return ScenarioConfig(
        duration=duration,
        seed=seed,
        layers=2,
        peripherals=[
            PeripheralSpec("heartbeat", 5.0, 66, hosts=(a, s)),
            PeripheralSpec("x11", 5.0, 180, hosts=(a, b)),
            PeripheralSpec("ntp", 32.0, 180, hosts=(b, s)),
            PeripheralSpec("netbios", 30.0, 92, hosts=(a, s)),
            PeripheralSpec("x11", 5.0, 180, hosts=(b, s)),
        ],
    )


_PORT_POOL = [20000, 2404, 44818, 18245, 1911]
_KINDS = ["ntp", "heartbeat", "x11", "netbios", "backup"]
_SIZE_RANGES = {
    "ntp": (110, 200),
    "heartbeat": (54, 100),
    "x11": (170, 300),
    "netbios": (60, 100),
    "backup": (220, 1514),
}


def small_random_scenario(meta: random.Random) -> ScenarioConfig:
    """A small randomized deployment, bounded to a few thousand packets."""
    n_groups = meta.randint(1, 2)
    ports = meta.sample(_PORT_POOL, k=n_groups)
    groups = []
    for port in ports:
        poll = meta.uniform(3.0, 20.0)
        response = meta.random() < 0.7
        low = 130 if response else 60
        sizes = meta.sample(range(low, 900), k=meta.randint(1, 3))
        groups.append(
            ScadaGroup(
                port=port,
                num_field_devices=meta.randint(1, 5),
                poll_mean=poll,
                poll_jitter_stddev=poll * meta.uniform(0.05, 0.3),
                object_sizes=sizes,
                response=response,
            )
        )
    layers = 3 if meta.random() < 0.3 else 2
    kinds = meta.sample(_KINDS, k=meta.randint(0, 4))
    if layers == 3:
        # A backup copying from the master can outweigh the HMI feed, and then
        # it is claimed as the HMI: the paper's documented miss.  The tests
        # that use these draws assert F = 1.
        kinds = [k for k in kinds if k != "backup"]
    peripherals = [
        PeripheralSpec(kind, meta.uniform(2.0, 30.0), meta.randint(*_SIZE_RANGES[kind]))
        for kind in kinds
    ]
    return ScenarioConfig(
        duration=meta.uniform(120.0, 400.0),
        seed=meta.randrange(2**32),
        scada_groups=groups,
        master=MasterConfig(reconnect_rate=meta.choice([0.0, 24.0, 96.0])),
        layers=layers,
        peripherals=peripherals,
        noise=NoiseConfig(nonresponder_retry=meta.random() < 0.5),
    )
