"""The honeyfarm simulator benchmark: one workload, timed, checked, reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition of the workload runs in
a fresh process (``perfbench/rep.py``); repetitions continue until the
next one would end after ``--seconds`` (at least ``MIN_REPS``). Host
metrics are medians over the repetitions; simulated metrics repeat
exactly for one seed, and the behaviour digest must agree across every
repetition.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits the
time of the run across the program's layers: some repetitions run
untraced, the rest under the layer tracer (``perfbench/tracer.py``),
and the per-layer metrics come from the traced ones, with the tracing
overhead (traced wall minus untraced median) alongside.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of the
invocation (environment stamp, every repetition, the layer edge table)
goes to ``perfbench/out/``. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import check_same_digest  # noqa: E402  (path set up above)
from tracer import LAYERS  # noqa: E402

#: Fewest repetitions of each kind an invocation makes.
MIN_REPS = 3
MIN_TRACED_REPS = 1

#: Every invocation must finish within this many seconds.
DEADLINE_S = 170.0

#: Where the metric names, units and bounds are declared.
SPEC = ROOT / "BENCHMARK.json"

#: Simulated end-to-end metrics; every other end-to-end metric is a
#: host measurement.
SIMULATED = ("peak_frames", "captures", "unserved_share")

#: Printed for every workload but not declared in ``BENCHMARK.json``: a
#: declared metric must never be 0, and no VM is ever infected on
#: emu-storm and no packet fails on any workload.
PRINTED_ONLY = (("captures", "infections"), ("unserved_share", "ratio"))


def stamp() -> Dict[str, Any]:
    """What two runs must share before their numbers may be compared."""
    from workloads import worker_count

    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": worker_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": has_numpy,
        "gc_thresholds": list(gc.get_threshold()),
        # The federation's default start method (prefers fork).
        "mp_start_method": "fork" if "fork" in methods else methods[0],
        "machine": platform.machine(),
    }


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, deadline: float, lane: str = "timed",
            trace: bool = False) -> Dict[str, Any]:
    """Run one repetition in a fresh process and return its record.

    The child leads its own process group so that, on a timeout, the
    federation's worker processes are stopped along with it.
    """
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--lane", lane]
    if trace:
        cmd.append("--trace")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise RepFailed(f"{workload} repetition timed out")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise RepFailed(
            f"{workload} repetition exited with {proc.returncode}:\n{err[-4000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["wall_s"] = time.perf_counter() - started
    return record


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _reap_group(pgid: int) -> None:
    """Wait until no process of the repetition's group is left."""
    for __ in range(500):
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def repeat(workload: str, seed: int, budget: float, minimum: int,
           deadline: float, **kwargs) -> List[Dict[str, Any]]:
    """Repetitions until the next one would end past ``budget`` seconds."""
    reps: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= minimum and elapsed + reps[-1]["wall_s"] > budget:
            return reps
        reps.append(run_rep(workload, seed, deadline, **kwargs))
        print(f"# rep {len(reps)}{' traced' if kwargs.get('trace') else ''}"
              f"{' ' + kwargs['lane'] if kwargs.get('lane') else ''}:"
              f" setup {reps[-1]['setup_s']:.4f} s, run {reps[-1]['run_s']:.3f} s,"
              f" peak RSS {reps[-1]['peak_rss_mb']:.1f} MiB", flush=True)


def check(reps: List[Dict[str, Any]], reference: Optional[Dict[str, Any]]) -> List[str]:
    """Every repetition's own checks, plus agreement across repetitions
    and with the reference lane."""
    failures: List[str] = []
    everything = reps + ([reference] if reference is not None else [])
    for rep in everything:
        failures += [f"{rep['lane']} rep: {f}" for f in rep["outcome"]["failures"]]
    failures += check_same_digest([rep["outcome"]["digest"] for rep in everything])
    return failures


def end_to_end(reps: List[Dict[str, Any]], reference: Optional[Dict[str, Any]]) -> Dict[str, float]:
    first = reps[0]["outcome"]
    peak_frames = first["peak_frames"]
    if peak_frames is None:
        peak_frames = reference["outcome"]["peak_frames"]
    return {
        "pkts_per_s": median([r["outcome"]["packets_in"] / r["run_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "peak_frames": peak_frames,
        "captures": first["captures"],
        "unserved_share": first["failed"] / first["attempted"] if first["attempted"] else 0.0,
    }


def per_layer(traced: List[Dict[str, Any]], untraced_run_s: float) -> Dict[str, float]:
    """Medians over the traced repetitions, plus the tracing overhead."""
    names = traced[0]["layers"].keys()
    metrics = {name: median([r["layers"][name] for r in traced]) for name in names}
    metrics["trace.overhead_ms"] = metrics["trace.wall_ms"] - untraced_run_s * 1e3
    metrics["sim.events_per_s"] = metrics["sim.events"] / untraced_run_s
    return metrics


def print_layer_table(metrics: Dict[str, float]) -> None:
    wall = metrics["trace.wall_ms"]
    print(f"# layer self time over a traced run of {wall:.1f} ms"
          f" (untraced {wall - metrics['trace.overhead_ms']:.1f} ms):")
    shown = [layer for layer in LAYERS if f"{layer}.self_ms" in metrics]
    for layer in sorted(shown, key=lambda name: -metrics[f"{name}.self_ms"]):
        ms = metrics[f"{layer}.self_ms"]
        print(f"#   {layer:<12} {ms:12.1f} ms  {100.0 * ms / wall:5.1f} %")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'};"
              " run from the root of a full checkout", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    env = stamp()
    print("# stamp " + json.dumps(env, sort_keys=True))
    started = time.perf_counter()
    try:
        reference = None
        # A workload timed in worker processes is checked once per
        # invocation against its in-process reference lane.
        if WORKLOADS[args.workload].reference is not None:
            reference = run_rep(args.workload, args.seed, deadline, lane="reference")
            print(f"# reference lane: run {reference['run_s']:.3f} s", flush=True)
        if args.trace:
            untraced = repeat(args.workload, args.seed, args.seconds / 2, 1, deadline,
                              lane="reference" if reference else "timed")
            if reference is not None:
                untraced.append(reference)
            spent = time.perf_counter() - started
            traced = repeat(args.workload, args.seed, args.seconds - spent,
                            MIN_TRACED_REPS, deadline, trace=True)
            reps = untraced + traced
        else:
            reps = repeat(args.workload, args.seed, args.seconds, MIN_REPS, deadline)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = check(reps, None if reference in reps else reference)
    result = end_to_end([r for r in reps if not r["traced"]], reference)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    for name, unit in declared + list(PRINTED_ONLY):
        kind = "simulated" if name in SIMULATED else "host"
        print(f"# {args.workload:<16} {name:<15} {result[name]:>16.6g} {unit:<11} ({kind})")

    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": env, "reps": reps,
        "end_to_end": result, "failures": failures,
    }
    if args.trace:
        untraced_s = median([r["run_s"] for r in reps if not r["traced"]])
        layers = per_layer([r for r in reps if r["traced"]], untraced_s)
        print_layer_table(layers)
        traced_reps = [r for r in reps if r["traced"]]
        for label in sorted(traced_reps[0]["roots_ms"]):
            ms = median([r["roots_ms"].get(label, 0.0) for r in traced_reps])
            print(f"#   under {label:<28} {ms:12.1f} ms  {100.0 * ms / layers['trace.wall_ms']:5.1f} %"
                  " (inclusive, outermost calls)")
        record["per_layer"] = layers
        values, declared = layers, [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        values = result
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    counted = [r for r in reps if not r["traced"]] or reps
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["outcome"]["attempted"] for r in counted),
        "failed": sum(r["outcome"]["failed"] for r in counted),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
