"""The four benchmark workloads and the correctness checks every run makes.

Each workload is built in two timed phases, :func:`build` (workload
generation plus farm or federation construction: ``setup_s``) and
:meth:`Prepared.run` (exactly one ``run(until=...)`` call: the window
``pkts_per_s`` divides by), then read back by :meth:`Prepared.outcome`
without touching the program again.

Why these four: each layer an optimisation is likely to target does
most of the work in one workload and almost none in another (see
``perfbench/README.md`` for the layer -> metric -> workload table).

* ``emu-storm`` — /16 emulator-only telescope storm, batched replay. No
  VM is ever cloned; time goes to the gateway span lane and trace
  generation.
* ``vm-storm`` — /16 telescope storm on four hosts under reflect
  containment. Thousands of flash clones; time goes to CoW memory
  first-touch writes, guest page dirtying and cloning.
* ``reflect-outbreak`` — a Code-Red outbreak on a /24 under reflect
  containment. Every captured VM keeps scanning and every scan is
  reflected back in: the per-packet egress path, and CoW page rewrites
  (``SharedFrameStore.exchange``), which ``vm-storm`` never makes.
* ``fed-storm`` — eight shards on the multiprocess federation with one
  worker per CPU; the only workload that crosses ``core.intershard``
  and ``core.parallel``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.recovery import packet_ledger
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.sim.rand import SeedSequence
from repro.testing.fedscenario import FederationScenario
from repro.testing.scenario import Scenario
from repro.workloads.scenarios import outbreak_scenario
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import replay_into_farm
from repro.workloads.worms import KNOWN_WORMS, OutbreakConfig

from checks import (
    check_conservation,
    check_containment,
    check_frames,
    digest_of,
)

#: ``emu-storm``: a 120 s storm whose arrivals span the whole horizon.
#: At 130 sources/s per /16 the storm emits 135k-150k packets, about
#: the load of the historical 150k-packet cap, which at 1,200 sources/s
#: cut all traffic off at t=34 s. The cap stays only as a memory guard
#: and must never bind (``arrival_span_s`` in the output shows it).
EMU_DURATION = 120.0
EMU_RATE = 130.0
EMU_CAP = 400_000

#: ``vm-storm``: the historical packet-storm farm under 120 s of telescope
#: traffic. The default mix draws probes per source from a Pareto tail
#: reaching 4,000, so a handful of sources decide the mix and
#: ``pkts_per_s`` varied by 29 % (IQR/median) across five seeds. Capping
#: the tail at 200 probes (as ``Scenario.build_trace`` does) with more
#: sources gives 9k-12k packets and 4k-5k clones per run, and packets per
#: clone varies by under 3 % between seeds. The trace is replayed as an
#: arrival stream, the farm's batched lane, like the other storms.
VM_DURATION = 120.0
VM_RATE = 10.0
VM_PROBES_MAX = 200

#: ``reflect-outbreak``: the /24 is fully captured well before this
#: horizon, after which every captured VM scans at the throttled
#: 10 scans/s and the reflected traffic dominates. A run to t=120 takes
#: about 43 s on a 2-CPU machine, too long for repeated runs.
OUTBREAK_HORIZON = 15.0
OUTBREAK_INITIAL = 1000

#: ``fed-storm``: the historical cross-shard federation storm.
FED_DURATION = 25.0


def worker_count() -> int:
    """Worker processes for ``fed-storm``: one per CPU this process may use."""
    return len(os.sched_getaffinity(0))


def _derive(seed: int, name: str) -> int:
    return SeedSequence(seed).spawn(name).root_seed


# --------------------------------------------------------------------- #
# Single-farm workloads
# --------------------------------------------------------------------- #


@dataclass
class FarmRun:
    """A built single-farm workload, ready for its one timed run."""

    farm: Honeyfarm
    until: float
    records: int = 0
    last_arrival: float = 0.0

    def run(self) -> None:
        self.farm.run(until=self.until)

    def outcome(self) -> Dict[str, Any]:
        farm = self.farm
        counters = dict(farm.metrics.counters())
        ledger = packet_ledger(farm)
        memories = {f"host{i}": host.memory for i, host in enumerate(farm.hosts)}
        peaks = [host.memory.peak_allocated_frames for host in farm.hosts]
        infections = [
            (r.time, str(r.victim), str(r.source), r.worm_name, r.generation)
            for r in farm.infections
        ]
        failures = (
            check_conservation({"farm": ledger.leaked})
            + check_frames(memories)
            + check_containment(
                farm.config.containment,
                {"farm": counters.get("gateway.initiated_external_out", 0)},
            )
        )
        return {
            "packets_in": counters.get("gateway.packets_in", 0),
            "attempted": ledger.packets_in,
            "failed": sum(ledger.dropped_by_cause.values()) + ledger.leaked,
            "peak_frames": sum(peaks),
            "captures": farm.infection_count(),
            "events": farm.sim.events_processed,
            "records": self.records,
            "arrival_span_s": self.last_arrival,
            "digest": digest_of({
                "counters": counters,
                "infections": infections,
                "peak_frames": peaks,
                "now": farm.sim.now,
            }),
            "failures": failures,
        }


def build_emu_storm(seed: int) -> FarmRun:
    scenario = Scenario(
        seed=seed, prefix_bits=16, duration=EMU_DURATION,
        telescope_rate=EMU_RATE, exploit_fraction=0.0,
        max_packets=EMU_CAP, containment="drop-all", vm_image_mb=4,
    )
    trace = scenario.build_trace()
    farm = Honeyfarm(scenario.farm_config(ladder=True))
    replay_into_farm(farm, trace, batched=True)
    return FarmRun(
        farm, until=EMU_DURATION + 5.0, records=len(trace),
        last_arrival=trace[-1].time if trace else 0.0,
    )


def build_vm_storm(seed: int) -> FarmRun:
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/16",),
        num_hosts=4,
        idle_timeout_seconds=60.0,
        flow_idle_timeout_seconds=60.0,
        sweep_interval_seconds=5.0,
        clone_jitter=0.01,
        containment="reflect",
        seed=_derive(seed, "vm-storm-farm"),
    ))
    workload = TelescopeWorkload(
        list(farm.inventory.prefixes),
        TelescopeConfig(
            seed=_derive(seed, "vm-storm-telescope"),
            sources_per_second_per_slash16=VM_RATE,
            probes_max=VM_PROBES_MAX,
        ),
    )
    records = workload.generate(VM_DURATION)
    replay_into_farm(farm, records, batched=True)
    return FarmRun(
        farm, until=VM_DURATION, records=len(records),
        last_arrival=records[-1].time if records else 0.0,
    )


def build_reflect_outbreak(seed: int) -> FarmRun:
    worm = KNOWN_WORMS["codered"]
    farm, outbreak = outbreak_scenario(
        worm_name=worm.name,
        outbreak=OutbreakConfig(
            initially_infected=OUTBREAK_INITIAL,
            telescope_fraction=1e-3,
            in_farm_scan_rate=min(worm.scan_rate, 10.0),
            seed=_derive(seed, "outbreak"),
        ),
        containment="reflect",
        seed=_derive(seed, "outbreak-farm"),
    )
    outbreak.start()
    return FarmRun(farm, until=OUTBREAK_HORIZON)


# --------------------------------------------------------------------- #
# The federation workload
# --------------------------------------------------------------------- #


def fed_scenario(seed: int) -> FederationScenario:
    return FederationScenario(
        seed=_derive(seed, "fed-storm"), shards=8, shard_bits=26,
        duration=FED_DURATION, latency=0.25, telescope_rate=2048.0,
        exploit_fraction=0.4, probes_max=100, max_packets_per_shard=1200,
        containment="reflect",
        worms=tuple((name, 2.0) for name in sorted(KNOWN_WORMS)),
        name="fed-storm",
    )


def _report_outcome(reports: List[Dict[str, Any]], containment: str) -> Dict[str, Any]:
    """Outcome fields both federation lanes derive from shard reports."""
    leaked = {f"shard{r['shard']}": r["ledger"]["leaked"] for r in reports}
    escaped = {
        f"shard{r['shard']}": r["counters"].get("gateway.initiated_external_out", 0)
        for r in reports
    }
    return {
        "packets_in": sum(r["counters"].get("gateway.packets_in", 0) for r in reports),
        "attempted": sum(r["ledger"]["packets_in"] for r in reports),
        "failed": sum(
            sum(r["ledger"]["dropped_by_cause"].values()) + r["ledger"]["leaked"]
            for r in reports
        ),
        "captures": sum(len(r["infections"]) for r in reports),
        "events": sum(r["events_processed"] for r in reports),
        "messages": sum(r["intershard"]["sent"] for r in reports),
        # The reports are the lanes' bit-equality surface: counters,
        # infections and each shard's clock.
        "digest": digest_of(reports),
        "failures": check_conservation(leaked) + check_containment(containment, escaped),
    }


@dataclass
class ParallelRun:
    """``fed-storm`` on the multiprocess lane (the timed lane)."""

    scenario: FederationScenario
    federation: Any
    result: Any = None

    def run(self) -> None:
        self.result = self.federation.run(until=self.scenario.duration)

    def outcome(self) -> Dict[str, Any]:
        out = _report_outcome(self.result.reports, self.scenario.containment)
        try:
            self.result.assert_packet_conservation()
        except AssertionError as exc:
            out["failures"].append(str(exc))
        # Host memories live in the workers; the reference lane, whose
        # reports must equal these, supplies peak frames and the frame
        # ledger check.
        out["peak_frames"] = None
        return out


@dataclass
class ReferenceRun:
    """``fed-storm`` on the in-process reference lane (checks and tracing)."""

    scenario: FederationScenario
    federation: Any

    def run(self) -> None:
        self.federation.run(until=self.scenario.duration)

    def outcome(self) -> Dict[str, Any]:
        federation = self.federation
        out = _report_outcome(federation.shard_reports(), self.scenario.containment)
        try:
            federation.assert_packet_conservation()
        except AssertionError as exc:
            out["failures"].append(str(exc))
        memories = {
            f"shard{s}.host{h}": host.memory
            for s, member in enumerate(federation.members)
            for h, host in enumerate(member.hosts)
        }
        out["failures"] += check_frames(memories)
        out["peak_frames"] = sum(m.peak_allocated_frames for m in memories.values())
        return out


def build_fed_storm(seed: int) -> ParallelRun:
    scenario = fed_scenario(seed)
    return ParallelRun(scenario, scenario.build_parallel(worker_count()))


def build_fed_reference(seed: int) -> ReferenceRun:
    scenario = fed_scenario(seed)
    return ReferenceRun(scenario, scenario.build_reference())


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Any]
    #: Builder of the in-process lane that the traced run and the parity
    #: check use; ``None`` when the timed lane already runs in-process.
    reference: Optional[Callable[[int], Any]] = None


#: Why each workload was chosen is in the module docstring and in
#: ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("emu-storm", build_emu_storm),
        Workload("vm-storm", build_vm_storm),
        Workload("reflect-outbreak", build_reflect_outbreak),
        Workload("fed-storm", build_fed_storm, reference=build_fed_reference),
    )
}
