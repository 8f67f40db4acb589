"""The benchmark: one workload, measured for a fixed host-time budget.

Run from the repository root::

    python3 perfbench/run.py --workload naive_rw --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats the workload (same seed, so the same inputs) until
``--seconds`` of host time have passed and prints the end-to-end metrics:
``host_s`` as the sum over the measured phase's slices of each slice's
fastest time (see :func:`fastest`), ``setup_s`` as the median over
repetitions, simulated-clock ones from the repetitions, which must agree
exactly.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics; every
traced repetition must reproduce the untraced simulated-clock results and
event count.  The last line of output is one JSON object.  The exit code
is 0 only when the workload ran and its correctness gate passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Repetitions per run at least, whatever ``--seconds`` says.
MIN_REPS = 2

#: Name and unit of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"), ("host_s", "s"), ("peak_rss_mib", "MiB"),
    ("sim_s", "s"), ("ok_frac", "frac"), ("goodput_ops_s", "1/s"),
    ("slo_goodput_ops_s", "1/s"),
    ("read_p50_ms", "ms"), ("read_p99_ms", "ms"),
    ("rand_read_p50_ms", "ms"), ("rand_read_p99_ms", "ms"),
    ("write_p50_ms", "ms"), ("write_p99_ms", "ms"),
)

#: Name and unit of every per-layer metric, in print order.
PER_LAYER = (
    ("sim.events", "count"), ("sim.processes", "count"),
    ("sim.host_us_per_event", "us"),
    ("machine.rpc_calls", "count"), ("machine.messages", "count"),
    ("machine.bytes", "B"), ("machine.rpc_p99_ms", "ms"),
    ("machine.host_s", "s"),
    ("storage.ops", "count"), ("storage.busy_frac", "frac"),
    ("storage.op_p50_ms", "ms"), ("storage.op_p99_ms", "ms"),
    ("storage.host_s", "s"),
    ("efs.requests", "count"), ("efs.disk_ops_per_request", "ratio"),
    ("efs.cache_hit_frac", "frac"), ("efs.host_s", "s"),
    ("core.requests", "count"), ("core.busy_frac", "frac"),
    ("core.op_p50_ms", "ms"), ("core.op_p99_ms", "ms"),
    ("core.cache_hit_frac", "frac"), ("core.host_s", "s"),
    ("tools.local_sort_sim_s", "s"), ("tools.merge_sim_s", "s"),
    ("tools.merge_passes", "count"), ("tools.host_s", "s"),
    ("traffic.admitted_frac", "frac"), ("traffic.shed", "count"),
    ("traffic.throttled", "count"), ("traffic.queue_peak_depth", "count"),
    ("traffic.host_s", "s"),
    ("obs.spans", "count"), ("obs.host_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def percentile(values, fraction):
    """Nearest-rank percentile of raw samples, with the number of samples
    strictly above it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    value = ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]
    beyond = len(ordered) - sum(1 for v in ordered if v <= value)
    return value, beyond


def counters(system):
    """Public counters of every layer, for before/after deltas."""
    bridges = system.bridges
    caches = [b.bridge_cache_stats() for b in bridges]
    queues = [b.admission.queue for b in bridges
              if b.admission is not None and b.admission.queue is not None]
    return {
        "disks": len(system.disks),
        "events": system.sim.events_executed,
        "messages": system.machine.network.messages_sent,
        "bytes": system.machine.network.bytes_sent,
        "disk_ops": system.total_disk_ops(),
        "disk_busy": sum(d.busy_time for d in system.disks),
        "efs_requests": sum(e.requests_served for e in system.efs_servers),
        "efs_hits": sum(e.cache.hits for e in system.efs_servers),
        "efs_misses": sum(e.cache.misses for e in system.efs_servers),
        "core_requests": sum(b.requests_served for b in bridges),
        "core_busy": [b.busy_time for b in bridges],
        "core_hits": sum(c["hits"] for c in caches if c),
        "core_misses": sum(c["misses"] for c in caches if c),
        "queue_peak": max((q.peak_depth for q in queues), default=0),
        "admission": system.admission_counters(),
        "spans": len(system.obs.spans) if system.obs is not None else 0,
    }


def run_once(workload_cls, seed, tracer=None):
    """Set up, measure and check one repetition of a workload."""
    workload = workload_cls(seed)
    # Earlier repetitions' garbage is collected here, not inside a timed
    # region.
    gc.collect()
    started = perf_counter()
    workload.build()
    setup_s = perf_counter() - started
    system = workload.system
    before = counters(system)
    if tracer is not None:
        tracer.install(system)
    gc.collect()
    try:
        workload.drive()
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = counters(system)
    outcome = workload.finish()
    return {
        "setup_s": setup_s, "slices": workload.slices, "outcome": outcome,
        "before": before, "after": after,
    }


def fastest(reps):
    """Host seconds of the measured phase, each slice at its fastest.

    Repetitions of one seed run the same events, so slice ``i`` is the
    same work in each of them; a slower time for it measures interference
    from the rest of the machine, which on a shared host comes and goes
    within seconds.
    """
    return sum(map(min, zip(*(rep["slices"] for rep in reps))))


def sim_metrics(outcome):
    """Simulated-clock end-to-end metrics (plus sample counts)."""
    metrics = {
        "sim_s": outcome.sim_s,
        "ok_frac": outcome.ok / outcome.attempted,
        "goodput_ops_s": outcome.goodput_ops / outcome.sim_s,
        "slo_goodput_ops_s": outcome.slo_ok / outcome.slo_window_s,
    }
    samples = {}
    for kind in ("read", "rand_read", "write"):
        values = outcome.samples[kind]
        for label, fraction in (("p50", 0.50), ("p99", 0.99)):
            value, beyond = percentile(values, fraction)
            metrics[f"{kind}_{label}_ms"] = value * 1e3
            samples[f"{kind}_{label}_ms"] = (len(values), beyond)
    return metrics, samples


def layer_metrics(rep, tracer):
    """Per-layer metrics of one traced repetition (the host-per-event and
    overhead figures, which need the untraced runs, are added later)."""
    before, after = rep["before"], rep["after"]
    delta = {key: after[key] - before[key]
             for key in before if isinstance(before[key], (int, float))}
    outcome = rep["outcome"]
    sim_s = outcome.sim_s
    efs_lookups = delta["efs_hits"] + delta["efs_misses"]
    core_lookups = delta["core_hits"] + delta["core_misses"]
    core_busy = [a - b for a, b in zip(after["core_busy"], before["core_busy"])]
    admission = after["admission"]
    offered = sum(admission["offered"].values()) if admission else 0
    admitted = sum(admission["admitted"].values()) if admission else 0
    sort = outcome.details.get("sort")
    disks = after["disks"]
    storage = tracer.sim_durations("storage", "BlockStore.")
    core_ops = tracer.sim_durations("core", "BridgeServer.")
    metrics = {
        "sim.events": delta["events"],
        "sim.processes": tracer.count(("sim", "Simulator.spawn")),
        "machine.rpc_calls": tracer.count(("machine", "Client.call")),
        "machine.messages": delta["messages"],
        "machine.bytes": delta["bytes"],
        "machine.rpc_p99_ms":
            percentile(tracer.sim_durations("machine", "Client.call"),
                       0.99)[0] * 1e3,
        "storage.ops": delta["disk_ops"],
        "storage.busy_frac": delta["disk_busy"] / (disks * sim_s),
        "storage.op_p50_ms": percentile(storage, 0.50)[0] * 1e3,
        "storage.op_p99_ms": percentile(storage, 0.99)[0] * 1e3,
        "efs.requests": delta["efs_requests"],
        "efs.disk_ops_per_request":
            delta["disk_ops"] / delta["efs_requests"]
            if delta["efs_requests"] else 0.0,
        "efs.cache_hit_frac":
            delta["efs_hits"] / efs_lookups if efs_lookups else 0.0,
        "core.requests": delta["core_requests"],
        "core.busy_frac": max(core_busy) / sim_s,
        "core.op_p50_ms": percentile(core_ops, 0.50)[0] * 1e3,
        "core.op_p99_ms": percentile(core_ops, 0.99)[0] * 1e3,
        "core.cache_hit_frac":
            delta["core_hits"] / core_lookups if core_lookups else 0.0,
        "tools.local_sort_sim_s": sort.local_sort_time if sort else 0.0,
        "tools.merge_sim_s": sort.merge_time if sort else 0.0,
        "tools.merge_passes": len(sort.passes) if sort else 0,
        "traffic.admitted_frac": admitted / offered if offered else 0.0,
        "traffic.shed": sum(admission["shed"].values()) if admission else 0,
        "traffic.throttled":
            sum(admission["throttled"].values()) if admission else 0,
        "traffic.queue_peak_depth": after["queue_peak"],
        "obs.spans": delta["spans"],
    }
    for layer in ("machine", "storage", "efs", "core", "tools", "traffic",
                  "obs"):
        metrics[f"{layer}.host_s"] = tracer.layer_host_s(layer)
    return metrics


def peak_rss_mib():
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload_cls, seed, seconds, trace):
    """Repeat the workload until ``seconds`` have passed (at least
    ``MIN_REPS`` times); return the metrics and the run's accounting."""
    deadline = perf_counter() + seconds
    untraced, traced, problems = [], [], []
    reference = None
    while len(untraced) < MIN_REPS or perf_counter() < deadline:
        for tracer in ((None, Tracer()) if trace else (None,)):
            rep = run_once(workload_cls, seed, tracer)
            outcome = rep["outcome"]
            problems += outcome.problems
            # Same seed, same inputs: every repetition, traced or not,
            # must give the same simulated-clock results and event count.
            fingerprint = (sim_metrics(outcome),
                           rep["after"]["events"] - rep["before"]["events"])
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                problems.append(
                    "traced run changed the simulation" if tracer
                    else "repetitions of one seed disagree")
            if tracer is None:
                untraced.append(rep)
            else:
                rep["layers"] = layer_metrics(rep, tracer)
                traced.append(rep)
    first = untraced[0]["outcome"]
    metrics, samples = sim_metrics(first)
    host_s = fastest(untraced)
    metrics.update(
        setup_s=statistics.median(rep["setup_s"] for rep in untraced),
        host_s=host_s,
        peak_rss_mib=peak_rss_mib(),
    )
    if trace:
        metrics = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        events = traced[0]["after"]["events"] - traced[0]["before"]["events"]
        metrics["sim.host_us_per_event"] = host_s / events * 1e6
        metrics["trace.overhead_frac"] = (
            fastest(traced) / host_s - 1.0)
    reps = untraced + traced
    attempted = sum(rep["outcome"].attempted for rep in reps)
    failed = sum(rep["outcome"].attempted - rep["outcome"].ok for rep in reps)
    return metrics, samples, {
        "problems": problems, "attempted": attempted, "failed": failed,
        "repetitions": len(untraced), "traced": len(traced),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, samples, info = measure(WORKLOADS[args.workload], args.seed,
                                     args.seconds, args.trace)
    declared = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} "
          f"repetitions={info['repetitions']} traced={info['traced']}")
    for name, unit in declared:
        note = ""
        if name in samples:
            count, beyond = samples[name]
            note = f"  (n={count}, {beyond} beyond)"
        print(f"{name:26s} {metrics[name]:16.6f} {unit}{note}")
    for problem in dict.fromkeys(info["problems"]):
        print(f"INCORRECT: {problem}")
    correct = not info["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
