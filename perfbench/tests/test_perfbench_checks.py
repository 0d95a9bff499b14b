"""Each correctness check the benchmark runs can fail."""

from __future__ import annotations

import copy

import pytest

import run as bench_run
from checks import (
    check_conservation,
    check_containment,
    check_frames,
    check_same_digest,
    digest_of,
)
from repro.testing.fedscenario import FederationScenario
from repro.workloads.scenarios import small_farm
from workloads import FarmRun, ReferenceRun


@pytest.fixture(scope="module")
def small_run():
    """A tiny single-farm run whose outcome passes every check."""
    from repro.net.addr import IPAddress
    from repro.net.packet import udp_packet

    farm = small_farm(containment="reflect", seed=5)
    attacker = IPAddress.parse("203.0.113.9")
    for i in range(4):
        farm.sim.schedule(0.1 * i, farm.inject, udp_packet(
            attacker, IPAddress.parse(f"10.16.0.{i + 1}"), 1, 1434,
            payload="exploit:slammer"))
    run = FarmRun(farm, until=5.0)
    run.run()
    return run


def test_small_run_passes_every_check(small_run):
    outcome = small_run.outcome()
    assert outcome["failures"] == []
    assert outcome["packets_in"] > 0


def test_conservation_fails_on_a_leak():
    assert check_conservation({"farm": 0}) == []
    failures = check_conservation({"shard0": 0, "shard1": 3})
    assert failures and "shard1" in failures[0]


def test_frame_check_fails_on_ledger_drift(small_run):
    memory = small_run.farm.hosts[0].memory
    assert check_frames({"host0": memory}) == []
    memory.private_frames += 1
    try:
        failures = check_frames({"host0": memory})
    finally:
        memory.private_frames -= 1
    assert failures and "frame ledger drift" in failures[0]


def test_containment_check_fails_on_an_escape():
    assert check_containment("reflect", {"farm": 0}) == []
    assert check_containment("drop-all", {"farm": 2})
    assert check_containment("reflect", {"farm": 1})
    # Open containment lets VMs talk to the Internet by design.
    assert check_containment("open", {"farm": 5}) == []


def test_digest_check_fails_when_runs_differ(small_run):
    digest = small_run.outcome()["digest"]
    assert check_same_digest([digest, digest, digest]) == []
    other = digest_of({"something": "else"})
    assert check_same_digest([digest, other, digest])


def test_digest_covers_counters_infections_frames_and_clock(small_run):
    outcome = small_run.outcome()
    farm = small_run.farm
    farm.sim._now += 1.0
    try:
        assert small_run.outcome()["digest"] != outcome["digest"]
    finally:
        farm.sim._now -= 1.0
    assert small_run.outcome()["digest"] == outcome["digest"]


def _rep(outcome, lane="timed"):
    return {"lane": lane, "outcome": outcome, "traced": False}


def test_invocation_check_collects_rep_failures_and_digest_drift():
    good = {"failures": [], "digest": "a"}
    assert bench_run.check([_rep(good), _rep(good)], None) == []
    broken = {"failures": ["farm: packet ledger leaked 1 packets"], "digest": "a"}
    assert bench_run.check([_rep(good), _rep(broken)], None)
    drifted = {"failures": [], "digest": "b"}
    assert bench_run.check([_rep(good), _rep(drifted)], None)


@pytest.fixture(scope="module")
def tiny_federation():
    scenario = FederationScenario(
        seed=3, shards=2, shard_bits=28, duration=4.0, latency=0.25,
        telescope_rate=4096.0, exploit_fraction=0.5, probes_max=20,
        max_packets_per_shard=150, containment="reflect",
        worms=(("slammer", 2.0),),
    )
    run = ReferenceRun(scenario, scenario.build_reference())
    run.run()
    return run


def test_parallel_reports_must_equal_the_reference(tiny_federation):
    reference = tiny_federation.outcome()
    assert reference["failures"] == []
    reports = tiny_federation.federation.shard_reports()
    tampered = copy.deepcopy(reports)
    tampered[1]["counters"]["gateway.packets_in"] += 1
    parallel = dict(reference, digest=digest_of(tampered))
    failures = bench_run.check(
        [_rep(parallel)], _rep(reference, lane="reference"))
    assert failures and "digest" in failures[0]
    same = dict(reference, digest=digest_of(reports))
    assert bench_run.check([_rep(same)], _rep(reference, lane="reference")) == []
