"""Outside-in tracing: wrap each layer's public entry points from here.

The program under test carries no benchmark hooks.  :class:`Tracer`
replaces entry points with timing wrappers for one measured phase and
restores the originals afterwards:

* class attributes (methods every instance shares, including instances
  created mid-run such as the traffic generator's per-arrival clients);
* instance attributes of one system's servers, disks, network,
  simulator and observability hub.

Per call it records the simulated entry and exit time and the host
*self* time: the wrapped call's own host time minus the host time spent
inside wrapped calls nested in it.  A generator entry point (a simulated
operation such as ``Client.call``) is timed step by step while the
simulation resumes it, so time parked in the event heap costs nothing.
The wrappers never yield anything of their own, so the event sequence is
the same as without them; the benchmark checks this on every traced run.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core import BridgeClient, JobController
from repro.efs import EFSClient
from repro.machine.rpc import Client
from repro.tools.sort import LocalSorter, PairMerge, SortTool
from repro.tools.sort.merge import MergeReader, MergeWriter
from repro.traffic import TrafficGenerator

#: Class-level entry points, by layer.
CLASS_ENTRY_POINTS = (
    ("machine", Client, ("call",)),
    ("core", BridgeClient, (
        "create", "delete", "open", "stat", "seq_read", "seq_write",
        "random_read", "random_write", "list_read", "list_write",
    )),
    ("core", JobController, ("open", "read", "write", "close")),
    ("efs", EFSClient, ("create", "delete", "read", "write", "append",
                        "read_blocks", "write_blocks")),
    ("tools", SortTool, ("run",)),
    ("tools", LocalSorter, ("sort",)),
    ("tools", PairMerge, ("run",)),
    ("tools", MergeReader, ("body",)),
    ("tools", MergeWriter, ("body",)),
    ("traffic", TrafficGenerator, ("open_loop", "_execute", "_attempt")),
)


def _server_handlers(server) -> List[str]:
    return sorted(name for name in dir(type(server)) if name.startswith("op_"))


class Tracer:
    """Per-call records of every wrapped entry point during one phase."""

    def __init__(self) -> None:
        self.sim = None
        #: ``(layer, name) -> [(sim_entry, sim_exit, host_self_s), ...]``
        self.calls: Dict[Tuple[str, str], List[Tuple[float, float, float]]] = (
            defaultdict(list)
        )
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- installation --------------------------------------------------

    def install(self, system) -> None:
        """Wrap the entry points of ``system`` and of the shared classes."""
        self.sim = system.sim
        for layer, cls, names in CLASS_ENTRY_POINTS:
            for name in names:
                self._patch(cls, name, layer, f"{cls.__name__}.{name}")
        self._patch(system.sim, "spawn", "sim", "Simulator.spawn")
        self._patch(system.machine.network, "send", "machine", "network.send")
        for disk in system.disks:
            for name in ("read", "write"):
                self._patch(disk, name, "storage", f"BlockStore.{name}")
        for efs in system.efs_servers:
            for name in _server_handlers(efs):
                self._patch(efs, name, "efs", f"EFSServer.{name}")
        for bridge in system.bridges:
            for name in _server_handlers(bridge):
                self._patch(bridge, name, "core", f"BridgeServer.{name}")
            control = bridge.admission
            if control is not None:
                self._patch(control, "admit", "traffic", "AdmissionControl.admit")
                if control.queue is not None:
                    for name in ("enqueue", "pick"):
                        self._patch(control.queue, name, "traffic",
                                    f"AdmissionQueue.{name}")
        if system.obs is not None:
            for name in ("begin", "end", "event", "on_send"):
                self._patch(system.obs, name, "obs", f"Observability.{name}")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, name, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _patch(self, owner, name: str, layer: str, key: str) -> None:
        had_own = name in vars(owner)
        original = getattr(owner, name)
        self._undo.append((owner, name, vars(owner).get(name), had_own))
        if inspect.isgeneratorfunction(original):
            wrapper = self._wrap_generator(original, (layer, key))
        else:
            wrapper = self._wrap_function(original, (layer, key))
        setattr(owner, name, wrapper)

    # -- timing --------------------------------------------------------

    def _close_frame(self, started: float) -> float:
        """Pop one timed frame; charge its duration to the enclosing one
        and return its self time."""
        elapsed = perf_counter() - started
        nested = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed - nested

    def _wrap_function(self, fn, key):
        tracer = self
        records = self.calls[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = tracer.sim.now
            tracer._stack.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                records.append((now, now, tracer._close_frame(started)))

        return wrapper

    def _wrap_generator(self, fn, key):
        tracer = self
        records = self.calls[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._drive(fn(*args, **kwargs), records)

        return wrapper

    def _drive(self, gen, records):
        """Run ``gen`` exactly as ``yield from gen`` would, timing each step."""
        sim = self.sim
        entered = sim.now
        host = 0.0
        value = None
        error = None
        while True:
            self._stack.append(0.0)
            started = perf_counter()
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(error)
            except StopIteration as stop:
                host += self._close_frame(started)
                records.append((entered, sim.now, host))
                return stop.value
            except BaseException:
                host += self._close_frame(started)
                records.append((entered, sim.now, host))
                raise
            host += self._close_frame(started)
            try:
                value = yield out
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded like ``yield from``
                value = None
                error = exc

    # -- summaries -----------------------------------------------------

    def layer_host_s(self, layer: str) -> float:
        return sum(
            record[2]
            for (owner, _name), records in self.calls.items()
            if owner == layer
            for record in records
        )

    def count(self, key: Tuple[str, str]) -> int:
        return len(self.calls.get(key, ()))

    def sim_durations(self, layer: str, prefix: str) -> List[float]:
        """Simulated durations of every call of ``layer`` whose entry
        point name starts with ``prefix``."""
        return [
            exit_ - entry
            for (owner, name), records in self.calls.items()
            if owner == layer and name.startswith(prefix)
            for entry, exit_, _host in records
        ]
