"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N [--lane timed|reference] [--trace]

Builds the workload (timed: ``setup_s``), runs it once (timed:
``run_s``), reads the outcome back and prints one JSON object as its
last line of output. ``run.py`` starts one such process per repetition
so that every repetition starts from a fresh heap and its own peak RSS.

With ``--trace`` the layer tracer's wrappers are installed before the
build and removed before the outcome is read; untraced repetitions never
import the tracer, so they run the unmodified program.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402  (path set up above)


class ChildPeakMonitor:
    """Samples the peak RSS (``VmHWM``) of this process's children.

    The federation's workers are reaped by ``multiprocessing`` without
    resource usage, so their peaks are read from ``/proc`` while they
    live. ``VmHWM`` only grows, so the last sample of each worker is its
    peak up to at most one sampling interval before it exited.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.peaks_kb: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _children(self) -> List[int]:
        pids: List[int] = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids.extend(int(p) for p in (task / "children").read_text().split())
            except OSError:
                continue
        return pids

    def _sample(self) -> None:
        for pid in self._children():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue  # exited between listing and reading
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
                    if kb > self.peaks_kb.get(pid, 0):
                        self.peaks_kb[pid] = kb
                    break

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "ChildPeakMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def total_mb(self) -> float:
        return sum(self.peaks_kb.values()) / 1024.0


def layer_metrics(tracer, setup_counts: Dict[str, Any], wall_ns: int,
                  outcome: Dict[str, Any], farm_stats: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    from tracer import FUNCTIONS, LAYERS

    totals = tracer.function_totals()
    layers = tracer.layer_self_ns(wall_ns)
    counts = tracer.counts
    metrics: Dict[str, float] = {"trace.wall_ms": wall_ns / 1e6}
    for layer in LAYERS:
        if layer != "workloads":  # generation happens in setup; see generate_ms
            metrics[f"{layer}.self_ms"] = layers[layer] / 1e6
    for label in FUNCTIONS:
        if label == "sim.run" or label.startswith("workloads."):
            continue
        calls, self_ns = totals[label]
        metrics[f"{label}.calls"] = calls
        metrics[f"{label}.self_ms"] = self_ns / 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    packets = outcome["packets_in"]
    records = setup_counts["records"]
    metrics.update({
        "sim.events": outcome["events"],
        "sim.heap_compactions": farm_stats["compactions"],
        "sim.gc.collections": tracer.gc_collections,
        "sim.gc.pause_ms": tracer.gc_pause_ns / 1e6,
        "workloads.generate_ms": setup_counts["generate_ms"],
        "workloads.records": records,
        "gateway.span_share": ratio(counts.get("span_consumed", 0), records),
        "flow.new_ratio": ratio(counts.get("flow_created", 0), counts.get("flow_observed", 0)),
        "containment.reflect_share": ratio(counts.get("reflected", 0), counts.get("verdicts", 0)),
        "fidelity.emulated_share": ratio(farm_stats["emulated"], packets),
        "guest.replies_per_packet": ratio(
            counts.get("guest_replies", 0), totals["guest.handle_packet"][0]),
        "memory.sharing_ratio": ratio(
            farm_stats["savings"], farm_stats["savings"] + farm_stats["private"]),
        "clone.per_kpkt": ratio(1000.0 * totals["farm.clone"][0], packets),
        "intershard.messages": outcome.get("messages", 0),
        # Every shard runs each lockstep epoch once.
        "parallel.epochs": ratio(totals["intershard.run_epoch"][0], farm_stats["shards"]),
    })
    return metrics


def farm_stats_of(prepared: Any) -> Dict[str, Any]:
    """Read-only program state the per-layer ratios need."""
    if isinstance(prepared, wl.FarmRun):
        farms = [prepared.farm]
    else:
        farms = list(prepared.federation.members)
    memories = [host.memory for farm in farms for host in farm.hosts]
    return {
        "compactions": sum(farm.sim.compactions for farm in farms),
        "emulated": sum(farm.metrics.counters().get("gateway.emulated", 0) for farm in farms),
        "savings": sum(m.sharing_savings_frames for m in memories),
        "private": sum(m.private_frames for m in memories),
        "shards": len(farms) if isinstance(prepared, wl.ReferenceRun) else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--lane", choices=("timed", "reference"), default="timed")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    # Traced runs of a multiprocess workload trace its in-process lane.
    in_process = args.lane == "reference" or args.trace
    lane = "reference" if in_process and workload.reference else "timed"
    build = workload.reference if lane == "reference" else workload.build

    tracer = None
    with contextlib.ExitStack() as stack:
        if args.trace:
            from tracer import LayerTracer

            tracer = stack.enter_context(LayerTracer())
        t0 = time.perf_counter_ns()
        prepared = build(args.seed)
        setup_ns = time.perf_counter_ns() - t0
        if tracer is not None:
            setup_counts = {
                "generate_ms": tracer.layer_self_ns(setup_ns)["workloads"] / 1e6,
                "records": tracer.counts.get("records", 0),
            }
            tracer.reset()
        monitor = None
        if isinstance(prepared, wl.ParallelRun):
            monitor = stack.enter_context(ChildPeakMonitor())
        t0 = time.perf_counter_ns()
        prepared.run()
        run_ns = time.perf_counter_ns() - t0

    outcome = prepared.outcome()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if monitor is not None:
        rss_mb += monitor.total_mb
    doc: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "lane": lane,
        "traced": args.trace,
        "setup_s": setup_ns / 1e9,
        "run_s": run_ns / 1e9,
        "peak_rss_mb": rss_mb,
        "outcome": outcome,
    }
    if tracer is not None:
        doc["layers"] = layer_metrics(
            tracer, setup_counts, run_ns, outcome, farm_stats_of(prepared))
        doc["edges"] = tracer.edge_table()
        doc["roots_ms"] = {label: ns / 1e6 for label, ns in tracer.roots.items()}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
