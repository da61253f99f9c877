#!/usr/bin/env python3
"""End-to-end benchmark: frames and REST calls through deployed NF-FGs.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload nat_bulk --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seconds 5     # the 9-metric table

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``NOTES.md`` for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-ups per run: the measured node's own, then the rest spread over
#: the run; ``setup_s`` is their median
SETUPS = 15
#: share of a traced run spent untraced (the reference for the overhead)
UNTRACED_SHARE = 0.4

END_TO_END = (  # (name, unit) in print order
    ("delivered_pps", "1/s"), ("latency_p50_us", "us"),
    ("latency_p95_us", "us"), ("ops_per_s", "1/s"),
    ("op_latency_p50_ms", "ms"), ("op_latency_p95_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_ratio", "ratio"))


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu": cpu, "nproc": os.cpu_count()}


# -- statistics ------------------------------------------------------------------

def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(share * len(ordered)) - 1)]


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


# -- phases ------------------------------------------------------------------------

def timed_setup(workload) -> float:
    """Seconds for one ``workload.setup()`` on a fresh node."""
    workload.node = None
    gc.collect()
    started = perf_counter()
    workload.setup()
    return perf_counter() - started


def measure(workload, seconds: float, store=None, probe=None):
    """Step ``workload`` for ``seconds``.  With a ``probe`` (a second
    instance of the workload), time SETUPS - 1 set-ups of it spread
    evenly over the run, so that ``setup_s`` sees the same machine
    states as the traffic does; returns (meter, set-up seconds)."""
    from workloads import Meter
    meter = Meter(store)
    setups = []
    workload.warm()
    started = perf_counter()
    deadline = started + seconds
    interval = seconds / (SETUPS - 1)
    next_setup = started + interval / 2 if probe is not None else deadline
    while (now := perf_counter()) < deadline:
        if now >= next_setup:
            setups.append(timed_setup(probe))
            next_setup += interval
        workload.step(meter)
    meter.wall = perf_counter() - started
    workload.finish(meter)
    return meter, setups


def end_to_end(meter, setups: list[float]) -> tuple[dict, dict]:
    """The nine end-to-end metrics (None where a workload has no such
    thing) plus sample counts."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latency_us = [s * 1e6 for s in meter.latency_s]
    metrics = {
        "delivered_pps": rate(sum(meter.inject_delivered),
                              sum(meter.inject_s)),
        "latency_p50_us": percentile(latency_us, 0.50),
        "latency_p95_us": percentile(latency_us, 0.95),
        "ops_per_s": None, "op_latency_p50_ms": None,
        "op_latency_p95_ms": None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "error_ratio": meter.failed / max(1, meter.attempted),
    }
    samples = {"injections": len(meter.inject_s),
               "latency_samples": len(latency_us),
               "beyond_latency_p95": len(latency_us)
               - ceil(0.95 * len(latency_us)),
               "frames_sent": meter.sent,
               "frames_delivered": sum(meter.inject_delivered),
               "setups": len(setups), "wall_s": meter.wall}
    if meter.op_s:
        op_ms = [s * 1e3 for s in meter.op_s]
        # an op's system time is the REST call plus the resident burst
        # that follows it
        metrics["ops_per_s"] = rate(len(op_ms), sum(meter.op_s)
                                    + sum(meter.inject_s))
        metrics["op_latency_p50_ms"] = percentile(op_ms, 0.50)
        metrics["op_latency_p95_ms"] = percentile(op_ms, 0.95)
        samples["ops"] = len(op_ms)
        samples["beyond_op_latency_p95"] = len(op_ms) - ceil(0.95 * len(op_ms))
    return metrics, samples


def per_layer(workload, seconds: float) -> tuple:
    """Untraced reference run, then a traced one on a fresh node;
    returns (metrics, detail, reference meter, traced meter)."""
    from layers import ROOT_INJECT, ROOT_OP, ROOT_SETUP, SpanStore
    timed_setup(workload)
    reference, _ = measure(workload, seconds * UNTRACED_SHARE)
    reference_pps = rate(sum(reference.inject_delivered),
                         sum(reference.inject_s))
    busy = sum(reference.inject_s) + sum(reference.op_s)

    store = SpanStore()
    store.install()
    try:
        workload.node = None
        gc.collect()
        store.root(ROOT_SETUP, workload.setup)
        before = workload.dispatch_counts()
        traced, _ = measure(workload, seconds * (1 - UNTRACED_SHARE), store)
        after = workload.dispatch_counts()
    finally:
        store.uninstall()
    summary = store.summarise()
    self_time, calls = summary["self_time"], summary["calls"]
    frames = max(1, traced.sent)
    ops = max(1, len(summary["roots"][workload.op_root]))

    def frame_self_us(layer):
        return self_time.get((ROOT_INJECT, layer), 0.0) / frames * 1e6

    def frame_calls(*sites):
        return sum(calls.get((ROOT_INJECT, s), 0) for s in sites) / frames

    def op_self_ms(layer):
        return self_time.get((workload.op_root, layer), 0.0) / ops * 1e3

    def op_calls(*sites):
        return sum(calls.get((workload.op_root, s), 0) for s in sites) / ops

    hits, misses = after[0] - before[0], after[1] - before[1]
    ct = workload.conntrack_report()
    measured_kinds = (ROOT_INJECT, ROOT_OP)
    root_total = sum(sum(summary["roots"][k]) for k in measured_kinds)
    attributed = sum(v for (kind, layer), v in self_time.items()
                     if kind in measured_kinds
                     and layer != "bench.unattributed")
    traced_pps = rate(sum(traced.inject_delivered), sum(traced.inject_s))
    codec_sites = ("IPv4Packet.from_bytes", "IPv4Packet.to_bytes",
                   "UdpDatagram.from_bytes", "UdpDatagram.to_bytes",
                   "repro.switch.datapath.parse_frame",
                   "repro.switch.fusion.parse_frame",
                   "repro.switch.actions.parse_frame")
    metrics = {
        "switch.self_us_per_frame": frame_self_us("switch"),
        "switch.calls_per_frame": frame_calls(
            "Datapath.process", "Datapath.process_batch_from"),
        "switch.dispatch_hit_ratio": hits / max(1, hits + misses),
        "linuxnet.namespace.self_us_per_frame":
            frame_self_us("linuxnet.namespace"),
        "linuxnet.namespace.entries_per_frame": frame_calls(
            "NetDevice.receive", "NetDevice.receive_batch"),
        "linuxnet.iptables.self_us_per_frame":
            frame_self_us("linuxnet.iptables"),
        "linuxnet.iptables.traversals_per_frame":
            frame_calls("Ruleset.traverse"),
        "linuxnet.routing.self_us_per_frame":
            frame_self_us("linuxnet.routing"),
        "linuxnet.routing.lookups_per_frame": frame_calls("RouteTable.lookup"),
        "linuxnet.conntrack.self_us_per_frame":
            frame_self_us("linuxnet.conntrack"),
        "linuxnet.conntrack.creates_per_frame":
            frame_calls("ConnTrack.create"),
        "linuxnet.conntrack.entries": ct["entries"],
        "linuxnet.conntrack.insert_failures": ct["insert_failures"],
        "linuxnet.conntrack.max_entries": ct["max_entries"],
        "ipsec.self_us_per_frame": frame_self_us("ipsec"),
        "ipsec.calls_per_frame": frame_calls(
            "repro.linuxnet.namespace.esp_encapsulate",
            "repro.linuxnet.namespace.esp_decapsulate"),
        "net.self_us_per_frame": frame_self_us("net"),
        "net.codec_calls_per_frame": frame_calls(*codec_sites),
        "rest.self_ms_per_op": op_self_ms("rest"),
        "nffg.self_ms_per_op": op_self_ms("nffg"),
        "core.orchestrator.self_ms_per_op": op_self_ms("core.orchestrator"),
        "core.reconciler.self_ms_per_op": op_self_ms("core.reconciler"),
        "core.reconciler.plan_steps_per_op":
            summary["plan_steps"][workload.op_root] / ops,
        "core.steering.self_ms_per_op": op_self_ms("core.steering"),
        "core.steering.fusion_invalidations_per_op": op_calls(
            "TrafficSteeringManager.invalidate_fusion"),
        "compute.self_ms_per_op": op_self_ms("compute"),
        "linuxnet.cmdline.self_ms_per_op": op_self_ms("linuxnet.cmdline"),
        "linuxnet.cmdline.commands_per_op": op_calls("ScriptRunner.run"),
        "bench.generator_share": max(0.0, reference.wall - busy)
        / reference.wall,
        "bench.attributed_share": attributed / root_total if root_total
        else 0.0,
        "bench.trace_overhead": traced_pps / reference_pps
        if reference_pps else 0.0,
    }
    detail = {"spans": summary["spans"], "traced_frames": traced.sent,
              "ops": ops, "untraced_pps": reference_pps,
              "traced_pps": traced_pps}
    return metrics, detail, reference, traced


# -- output ---------------------------------------------------------------------------

def _declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed)
    if trace:
        metrics, detail, *meters = per_layer(workload, seconds)
        units = dict(_declared("per_layer"))
        attempted = sum(m.attempted for m in meters)
        failed = sum(m.failed for m in meters)
        failures = [f for m in meters for f in m.failures]
        samples = detail
    else:
        first = timed_setup(workload)
        meter, setups = measure(workload, seconds,
                                probe=WORKLOADS[name](seed))
        metrics, samples = end_to_end(meter, [first] + setups)
        units = dict(END_TO_END)
        attempted, failed, failures = (meter.attempted, meter.failed,
                                       meter.failures)
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "env": environment(), "metrics": metrics,
            "units": units, "samples": samples, "attempted": attempted,
            "failed": failed, "failures": failures}


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']}  trace={result['trace']}")
    print(f"   env {json.dumps(result['env'], sort_keys=True)}")
    for name, value in result["metrics"].items():
        unit = result["units"].get(name, "")
        print(f"   {name:<44} {_fmt(value):>12} {unit}")
    print(f"   samples {json.dumps(result['samples'], sort_keys=True)}")
    print(f"   checks attempted={result['attempted']} "
          f"failed={result['failed']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")

    kind = "per_layer" if args.trace else "end_to_end"
    declared = _declared(kind)
    results = []
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        results.append(result)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, unit in declared:
            metrics[prefix + metric] = {"value": result["metrics"][metric],
                                        "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
