"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload class takes the benchmark seed and generates every input
(keys, payloads, op plans) in its constructor, outside any timed region.
A run then calls, in order:

* ``build()``  — set-up: build the system and preload inputs (timed as
  ``setup_s``);
* ``drive()``  — the measured phase, run through :func:`run_sliced`,
  which times it in slices of equal event counts (``host_s`` is built
  from those slices);
* ``finish()`` — after-measurement work and the correctness gate;
  returns an :class:`Outcome` with raw per-op simulated latencies.

Every system is built by :func:`build_system`, the one adapter between
the benchmark and the system's construction knobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from repro import (
    DATA_BYTES_PER_BLOCK, DEFAULT_CONFIG, BridgeSystem, SortTool, paper_system,
)
from repro.efs.fsck import check_system
from repro.errors import BridgeError, DeadlockError
from repro.sim import join_all
from repro.storage import FixedLatency
from repro.tools.sort import make_record
from repro.traffic import (
    DEFAULT_MIX, RequestMix, SLORecorder, TrafficGenerator, ZipfCatalog,
)

#: A request that takes longer than this misses its latency limit
#: (``slo_goodput_ops_s``).
SLO_LIMIT_S = 1.0
#: Device size for every system: ample for each workload's files, and
#: small enough that the fsck gate (which scans whole devices) is cheap.
DISK_BLOCKS = 8192
#: Events per timed slice of a measured phase (a few ms of host time).
SLICE_EVENTS = 2000

# naive_rw: rounds of four closed-loop clients, each on its own width-8
# file; rounds run one after another and pool their samples.
RW_ROUNDS = 3
RW_CLIENTS = 4
RW_APPENDS = 300          # sequential writes per client
RW_RANDOM_READS = 300     # random reads per client
RW_OVERWRITES = 100       # random overwrites per client (3 reads : 1)

# sort: Table 4's tool at 8 LFS, c scaled with the file (paper: 10922/512).
SORT_RECORDS = 2048
SORT_BUFFER = 96
SORT_LOOKUP_CLIENTS = 6
SORT_LOOKUPS = 700        # rank lookups (each copied out) per lookup client

# traffic: open loop against a 4-partition fabric on 4 fast-disk LFS.
TRAFFIC_LFS = 4
TRAFFIC_PARTITIONS = 4
TRAFFIC_FILES = 48
TRAFFIC_BLOCKS = 12
TRAFFIC_SKEW = 1.1
TRAFFIC_RATE = 150.0      # requests per simulated second (Poisson)
TRAFFIC_DURATION = 140.0  # simulated seconds of arrivals
TRAFFIC_ADMISSION = {"policy": "fair", "depth": 32}
# The default mix without ``meta``.  Each open spends the 70 ms directory
# probe on its partition server's CPU, so the read tail is set by how many
# opens happen to queue together: with them the read p99 of 20 seeds
# spread (interquartile range over median) 0.23.  Without them the server
# still binds near this rate (200 req/s sheds) and the spread is 0.03-0.06.
TRAFFIC_MIX = {cls: weight for cls, weight in DEFAULT_MIX.items()
               if cls != "meta"}


def build_system(workload: str, seed: int) -> BridgeSystem:
    """The one place the benchmark chooses system knobs."""
    if workload == "naive_rw":
        return paper_system(8, seed=seed, disk_capacity_blocks=DISK_BLOCKS)
    if workload == "sort":
        config = DEFAULT_CONFIG.with_changes(sort_buffer_records=SORT_BUFFER)
        return paper_system(8, seed=seed, config=config,
                            disk_capacity_blocks=DISK_BLOCKS)
    if workload == "traffic":
        return BridgeSystem(
            TRAFFIC_LFS, seed=seed, disk_latency=FixedLatency(0.0005),
            bridge_server_count=TRAFFIC_PARTITIONS, obs=True,
            disk_capacity_blocks=DISK_BLOCKS,
        )
    raise ValueError(f"unknown workload {workload!r}")


def padded(data: bytes) -> bytes:
    """A block's data area as a read returns it."""
    return data.ljust(DATA_BYTES_PER_BLOCK, b"\x00")


@dataclass
class Outcome:
    """What one measured phase produced, on the simulated clock."""

    sim_s: float                 # makespan of the measured phase
    attempted: int               # ops counted by ok_frac
    ok: int                      # of those, completed without error
    goodput_ops: int             # ops (sort: records) per sim_s
    slo_ok: int                  # ops completed OK within SLO_LIMIT_S
    slo_window_s: float          # simulated seconds slo_ok is spread over
    samples: Dict[str, List[float]]   # read / rand_read / write latencies
    problems: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)


def run_sliced(system, generator, name: str, slices: List[float]):
    """``system.run(generator)``, timed in slices of ``SLICE_EVENTS``
    events: each slice's host seconds are appended to ``slices``.

    The same seed runs the same events in the same order, so slice ``i``
    is the same work in every repetition and its fastest time is what the
    work costs with the least interference from the rest of the machine.
    """
    sim = system.sim
    process = sim.spawn(generator, name=name)
    while sim.pending_events:
        started = perf_counter()
        sim.run(max_events=SLICE_EVENTS)
        slices.append(perf_counter() - started)
    if not process.done:
        raise DeadlockError([process])
    return process.result


def _fsck_problems(system) -> List[str]:
    return [
        f"fsck lfs{index}: {error}"
        for index, report in enumerate(check_system(system))
        for error in report.errors
    ]


# ----------------------------------------------------------------------
# naive_rw
# ----------------------------------------------------------------------


class NaiveRW:
    """Rounds of four closed-loop naive clients mixing every block op.

    Each client's plan is a seeded interleaving of three streams on its
    own width-8 file: appends (``seq_write``), sequential reads that
    trail the appends (``seq_read``), and random ops at uniformly drawn
    written blocks, three ``random_read`` to one ``random_write``.
    """

    name = "naive_rw"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.plans = [self._plan(rng) for _ in range(RW_ROUNDS * RW_CLIENTS)]

    @staticmethod
    def _plan(rng: random.Random):
        """One client's ``(plan, image)``: the plan is a list of
        ``(op, block, payload, expected)`` where ``expected`` is the data
        a read must return (the last write to that block); the image is
        the file's contents after the whole plan."""
        randoms = ["rand_read"] * RW_RANDOM_READS + ["write"] * RW_OVERWRITES
        rng.shuffle(randoms)
        image: List[bytes] = []
        plan = []
        appends = RW_APPENDS
        cursor = 0
        while appends or cursor < RW_APPENDS or randoms:
            weights = (
                appends,
                (RW_APPENDS - cursor) if cursor < len(image) else 0,
                len(randoms) if image else 0,
            )
            pick = rng.choices(range(3), weights=weights)[0]
            if pick == 0:
                payload = b"a%d|" % len(image) + rng.randbytes(24)
                plan.append(("append", len(image), payload, None))
                image.append(padded(payload))
                appends -= 1
            elif pick == 1:
                plan.append(("read", cursor, None, image[cursor]))
                cursor += 1
            else:
                op = randoms.pop()
                block = rng.randrange(len(image))
                if op == "write":
                    payload = b"w%d|" % block + rng.randbytes(24)
                    plan.append(("overwrite", block, payload, None))
                    image[block] = padded(payload)
                else:
                    plan.append(("rand_read", block, None, image[block]))
        return plan, image

    def build(self) -> None:
        self.system = build_system(self.name, self.seed)

    def drive(self) -> None:
        system = self.system
        sim = system.sim
        self.records = [[] for _ in self.plans]

        def client(index):
            bridge = system.naive_client()
            name = f"rw{index}"
            out = self.records[index]
            yield from bridge.create(name, width=8)
            yield from bridge.open(name)
            for op, block, payload, _expected in self.plans[index][0]:
                started = sim.now
                data = None
                try:
                    if op == "append":
                        yield from bridge.seq_write(name, payload)
                    elif op == "overwrite":
                        yield from bridge.random_write(name, block, payload)
                    elif op == "read":
                        _number, data = yield from bridge.seq_read(name)
                    else:
                        data = yield from bridge.random_read(name, block)
                except BridgeError as exc:
                    data = exc
                out.append((sim.now - started, data))

        def main():
            started = sim.now
            for first in range(0, len(self.plans), RW_CLIENTS):
                yield join_all([
                    system.client_node.spawn(client(i), name=f"rw-client{i}")
                    for i in range(first, first + RW_CLIENTS)
                ])
            return sim.now - started

        self.slices: List[float] = []
        self.sim_s = run_sliced(system, main(), "naive_rw", self.slices)

    def finish(self) -> Outcome:
        samples = {"read": [], "rand_read": [], "write": []}
        problems: List[str] = []
        ok = slo_ok = attempted = 0
        for index, (plan, image) in enumerate(self.plans):
            for (op, block, _payload, expected), (latency, data) in zip(
                    plan, self.records[index]):
                attempted += 1
                if isinstance(data, Exception):
                    continue
                ok += 1
                slo_ok += latency <= SLO_LIMIT_S
                samples["write" if op in ("append", "overwrite") else op].append(
                    latency)
                if expected is not None and data != expected:
                    problems.append(f"rw{index} {op} block {block}: stale data")
            stored = read_back(self.system, f"rw{index}")
            if stored != image:
                problems.append(f"rw{index}: read-back differs from last writes")
        problems += _fsck_problems(self.system)
        return Outcome(
            sim_s=self.sim_s, attempted=attempted, ok=ok, goodput_ops=ok,
            slo_ok=slo_ok, slo_window_s=self.sim_s, samples=samples,
            problems=problems,
        )


def read_back(system, name: str) -> List[bytes]:
    client = system.naive_client()
    return system.run(client.read_all(name), name=f"read-back:{name}")


# ----------------------------------------------------------------------
# sort
# ----------------------------------------------------------------------


class Sort:
    """The sort tool over a uniform-key record file (Table 4, p = 8).

    The measured phase is the sort alone.  Afterwards a query phase runs
    on the simulated clock only: naive clients look up seeded ranks in
    the sorted file (``read_*`` and ``rand_read_*``; every timed read is
    random) and append each record found to a file of their own
    (``write_*``).
    """

    name = "sort"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.records = [
            make_record(rng.randrange(2**48), rng.randbytes(16))
            for _ in range(SORT_RECORDS)
        ]
        self.expected = sorted(self.records)
        self.lookups = [
            [rng.randrange(SORT_RECORDS) for _ in range(SORT_LOOKUPS)]
            for _ in range(SORT_LOOKUP_CLIENTS)
        ]

    def build(self) -> None:
        self.system = build_system(self.name, self.seed)
        client = self.system.naive_client()

        def load():
            yield from client.create("unsorted")
            yield from client.write_all("unsorted", self.records)

        self.system.run(load(), name="sort-load")

    def drive(self) -> None:
        system = self.system
        tool = SortTool(system.client_node, system.server_target(),
                        system.config)
        self.slices: List[float] = []
        self.result = run_sliced(system, tool.run("unsorted", "sorted"),
                                 "sort", self.slices)

    def _query(self):
        """Lookup clients: read seeded ranks, copy each record out."""
        system = self.system
        sim = system.sim
        found: List[List[tuple]] = [[] for _ in self.lookups]

        def looker(index):
            client = system.naive_client()
            out = f"found{index}"
            yield from client.create(out)
            for rank in self.lookups[index]:
                started = sim.now
                data = yield from client.random_read("sorted", rank)
                read_latency = sim.now - started
                started = sim.now
                yield from client.seq_write(out, data)
                found[index].append((read_latency, sim.now - started, data))

        def main():
            started = sim.now
            yield join_all([
                system.client_node.spawn(looker(i), name=f"lookup{i}")
                for i in range(len(self.lookups))
            ])
            return sim.now - started

        window = system.run(main(), name="sort-query")
        return found, window

    def finish(self) -> Outcome:
        problems: List[str] = []
        if read_back(self.system, "sorted") != self.expected:
            problems.append("sorted file is not the sorted input records")
        found, window = self._query()
        reads = [r for rows in found for r, _w, _d in rows]
        samples = {
            "read": reads,
            "rand_read": reads,
            "write": [w for rows in found for _r, w, _d in rows],
        }
        for index, rows in enumerate(found):
            want = [self.expected[rank] for rank in self.lookups[index]]
            if [data for _r, _w, data in rows] != want:
                problems.append(f"lookup client {index}: wrong records")
            if read_back(self.system, f"found{index}") != want:
                problems.append(f"found{index}: copied records differ")
        problems += _fsck_problems(self.system)
        queries = len(reads) + len(samples["write"])
        slo_ok = sum(latency <= SLO_LIMIT_S
                     for latency in reads + samples["write"])
        records_ok = SORT_RECORDS if not problems else 0
        return Outcome(
            sim_s=self.result.total_time,
            attempted=SORT_RECORDS + queries,
            ok=records_ok + queries,
            goodput_ops=records_ok,
            slo_ok=slo_ok, slo_window_s=window, samples=samples,
            problems=problems,
            details={"sort": self.result},
        )


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------


class LoggingRecorder(SLORecorder):
    """An SLO recorder that also keeps every outcome's raw latency."""

    def __init__(self, registry=None) -> None:
        super().__init__(registry=registry)
        self.log: List[tuple] = []

    def record_outcome(self, cls: str, outcome: str, latency: float) -> None:
        super().record_outcome(cls, outcome, latency)
        self.log.append((cls, outcome, latency))


class Traffic:
    """Poisson open loop over a Zipf catalog, fair admission, obs on."""

    name = "traffic"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.catalog = {
            f"tf{index:03d}": [
                b"tf%03d-%02d|" % (index, block) + rng.randbytes(16)
                for block in range(TRAFFIC_BLOCKS)
            ]
            for index in range(TRAFFIC_FILES)
        }

    def build(self) -> None:
        system = self.system = build_system(self.name, self.seed)
        client = system.naive_client()

        def load():
            for name, chunks in self.catalog.items():
                yield from client.create(name)
                yield from client.write_all(name, chunks)

        system.run(load(), name="traffic-load")
        system.install_admission(TRAFFIC_ADMISSION)
        self.recorder = LoggingRecorder(registry=system.obs.metrics)
        self.generator = TrafficGenerator(
            system, ZipfCatalog(list(self.catalog), TRAFFIC_BLOCKS,
                                skew=TRAFFIC_SKEW),
            mix=RequestMix(TRAFFIC_MIX), recorder=self.recorder,
        )

    def drive(self) -> None:
        sim = self.system.sim
        started = sim.now
        self.slices: List[float] = []
        run_sliced(self.system,
                   self.generator.open_loop(TRAFFIC_RATE, TRAFFIC_DURATION),
                   "traffic-source", self.slices)
        self.sim_s = sim.now - started

    def finish(self) -> Outcome:
        recorder = self.recorder
        log = recorder.log
        problems: List[str] = []
        if not (recorder.total() == len(log) == self.generator.spawned):
            problems.append("an offered request has no single outcome")
        for cls, stats in recorder.classes.items():
            if stats.offered != sum(stats.outcomes.values()):
                problems.append(f"class {cls}: outcomes != offered")
        counters = self.system.admission_counters()
        for kind in ("shed", "throttled"):
            for cls, stats in recorder.classes.items():
                if counters[kind].get(cls, 0) != stats.outcomes[kind]:
                    problems.append(f"class {cls}: recorder {kind} differs "
                                    f"from admission_counters()")
        for cls in ("read", "write", "meta", "tool"):
            stats = recorder.classes.get(cls)
            offered = stats.offered if stats is not None else 0
            if counters["offered"].get(cls, 0) != offered:
                problems.append(f"class {cls}: offered differs from "
                                f"admission_counters()")
        problems += _fsck_problems(self.system)
        ok_latencies = [(cls, latency) for cls, outcome, latency in log
                        if outcome == "ok"]
        reads = [latency for cls, latency in ok_latencies if cls == "read"]
        return Outcome(
            sim_s=self.sim_s, attempted=len(log), ok=len(ok_latencies),
            goodput_ops=len(ok_latencies),
            slo_ok=sum(latency <= SLO_LIMIT_S for _c, latency in ok_latencies),
            slo_window_s=self.sim_s,
            samples={
                "read": reads,
                "rand_read": reads,
                "write": [latency for cls, latency in ok_latencies
                          if cls == "write"],
            },
            problems=problems,
            details={"arrival_log": list(self.generator.arrival_log)},
        )


WORKLOADS = {cls.name: cls for cls in (NaiveRW, Sort, Traffic)}
