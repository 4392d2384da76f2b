"""Golden-equivalence test for the fabric step, lone-flit path included.

``test_switch_golden.py`` pins :func:`route_node`; :class:`NocFabric`
skips the router entirely when one flit is alone in the network.
``ReferenceFabric.step`` below is a plain transcription of the general
step (fault- and telemetry-free): it routes every worklist node through
``route_node``, whatever the population.  Random seeded traffic of one to
three flits (unicast, self-addressed and multicast, injected at random
cycles) runs on both, and every cycle's link registers, injection slots
and delayed-link heap, every ejection (cycle, node, uid), the ordered
fabric counters and the latency histogram must agree.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

import pytest

from repro.kernel.component import Component
from repro.kernel.simulator import Simulator
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.switch import route_node
from repro.noc.topology import (
    ChipletTopology,
    FoldedTorusTopology,
    MeshTopology,
)


class ReferenceFabric(NocFabric):
    """``NocFabric`` with the general step only: no lone-flit path."""

    def step(self, cycle: int) -> None:
        work = self._work
        regs = self.regs
        delayed = self._delayed
        while delayed and delayed[0][0] <= cycle:
            __, seq, node, in_port, flit = heappop(delayed)
            if regs[node][in_port] is None:
                regs[node][in_port] = flit
                work.add(node)
            else:
                heappush(delayed, (cycle + 1, seq, node, in_port, flit))
        if not work:
            if delayed:
                self.sleep(until=delayed[0][0])
            else:
                self.sleep()
            return
        work_nodes = sorted(work)
        work.clear()
        topo = self.topology
        moves = []
        counts = dict.fromkeys(
            ("flits_injected", "injection_stalls", "deflections",
             "eject_overflows", "flits_ejected", "flit_hops"), 0,
        )
        for node in work_nodes:
            row = regs[node]
            port = self.ports[node]
            inject = port.inject.pending
            if inject is not None and inject.dst == node:
                inject.injected_at = cycle
                port.inject.pending = None
                port.inject.injected += 1
                counts["flits_injected"] += 1
                counts["flits_ejected"] += 1
                counts["flit_hops"] += inject.hops
                self._eject(port, inject, cycle, zero_hop=True)
                inject = None
            elif inject is not None and inject.dst < 0:
                inject.injected_at = cycle
            outcome = route_node(
                node, list(row), inject, topo, self.eject_capacity
            )
            row[:] = [None] * len(row)
            for flit in outcome.ejected:
                counts["flits_ejected"] += 1
                counts["flit_hops"] += flit.hops
                self._eject(port, flit, cycle)
            if outcome.flit_copies:
                self._flit_count += outcome.flit_copies
                self.stats.inc("mcast_copies", outcome.flit_copies)
            if inject is not None:
                if outcome.injected:
                    inject.injected_at = cycle
                    port.inject.pending = None
                    port.inject.injected += 1
                    counts["flits_injected"] += 1
                else:
                    port.inject.stalled_cycles += 1
                    counts["injection_stalls"] += 1
                    work.add(node)
            counts["deflections"] += outcome.deflections
            counts["eject_overflows"] += outcome.eject_overflow
            for direction, flit in enumerate(outcome.outputs):
                if flit is None:
                    continue
                neighbor = topo.neighbor_table[node][direction]
                in_port = topo.reverse_port_table[node][direction]
                flit.hops += 1
                latency = topo.link_latency_table[node][direction]
                ser = topo.link_ser_table[node][direction]
                if latency == 1 and ser == 1:
                    moves.append((neighbor, in_port, flit))
                else:
                    wire = node * self._n_ports + direction
                    start = max(self._wire_free[wire], cycle)
                    self._wire_free[wire] = start + ser
                    self._delay_seq += 1
                    heappush(delayed, (
                        start + latency, self._delay_seq, neighbor, in_port,
                        flit,
                    ))
        for neighbor, in_port, flit in moves:
            assert regs[neighbor][in_port] is None
            regs[neighbor][in_port] = flit
            work.add(neighbor)
        for key in ("flits_injected", "injection_stalls", "deflections",
                    "eject_overflows"):
            if counts[key]:
                self.stats.inc(key, counts[key])
        if counts["flits_ejected"]:
            self.stats.inc("flits_ejected", counts["flits_ejected"])
            self.stats.inc("flit_hops", counts["flit_hops"])
        if not work:
            if delayed:
                self.sleep(until=delayed[0][0])
            else:
                self.sleep()


class Sender(Component):
    """Offers its flits in order, each from its scheduled cycle on."""

    def __init__(self, fabric: NocFabric, node: int, flits) -> None:
        super().__init__(f"sender[{node}]")
        self.port = fabric.ports_of(node).inject
        self.flits = sorted(flits, key=lambda item: item[0])  # (cycle, flit)

    def step(self, cycle: int) -> None:
        if self.flits and self.flits[0][0] <= cycle:
            if self.port.try_inject(self.flits[0][1]):
                self.flits.pop(0)
        if not self.flits:
            self.sleep()


class Sink(Component):
    """Drains one node's ejection queue into a shared log."""

    def __init__(self, fabric: NocFabric, node: int, log: list) -> None:
        super().__init__(f"sink[{node}]")
        self.node = node
        self.queue = fabric.ports_of(node).eject.queue
        fabric.ports_of(node).eject.owner = self
        self.log = log

    def step(self, cycle: int) -> None:
        while self.queue:
            self.log.append((cycle, self.node, self.queue.pop()))
        self.sleep()


class Probe(Component):
    """Snapshots the fabric after every cycle (registered last)."""

    def __init__(self, fabric: NocFabric, snapshot) -> None:
        super().__init__("probe")
        self.fabric = fabric
        self.snapshot = snapshot
        self.frames: list = []

    def step(self, cycle: int) -> None:
        self.frames.append((cycle, self.snapshot(self.fabric)))


def _scenario(rng: random.Random, n_nodes: int):
    """1-3 flit specs: (cycle, src, dst, dst_mask) with dst -1 = multicast."""
    specs = []
    for __ in range(rng.randint(1, 3)):
        src = rng.randrange(n_nodes)
        cycle = rng.randrange(12)
        roll = rng.random()
        if roll < 0.15:
            specs.append((cycle, src, src, 0))
        elif roll < 0.35:
            others = [node for node in range(n_nodes) if node != src]
            members = rng.sample(others, rng.randint(1, min(3, len(others))))
            specs.append((cycle, src, -1, sum(1 << m for m in members)))
        else:
            specs.append((cycle, src, rng.randrange(n_nodes), 0))
    return specs


def _run(fabric_cls, make_topology, specs, eject_capacity):
    base = Flit(dst=0, src=0, ptype=PacketType.MESSAGE).uid + 1

    def uid(flit):
        return flit.uid - base

    def flit_view(flit):
        return (uid(flit), flit.dst, flit.dst_mask, flit.injected_at,
                flit.hops, flit.deflections)

    def snapshot(fabric):
        return (
            tuple(
                tuple(None if f is None else flit_view(f) for f in row)
                for row in fabric.regs
            ),
            tuple(
                None if p.inject.pending is None
                else flit_view(p.inject.pending)
                for p in fabric.ports
            ),
            tuple(
                (due, node, in_port, flit_view(flit))
                for due, __, node, in_port, flit in sorted(fabric._delayed)
            ),
            fabric.flits_in_network,
            fabric.active,
        )

    flits = []
    for cycle, src, dst, mask in specs:
        ptype = PacketType.MULTICAST if dst < 0 else PacketType.MESSAGE
        flits.append((cycle, src, Flit(dst=dst, src=src, ptype=ptype,
                                       dst_mask=mask, data=len(flits))))
    sim = Simulator()
    fabric = fabric_cls(make_topology(), eject_capacity=eject_capacity)
    sim.register(fabric)
    log: list = []
    for node in range(fabric.topology.n_nodes):
        sim.register(Sink(fabric, node, log))
    senders = [
        Sender(fabric, node, [(c, f) for c, s, f in flits if s == node])
        for node in sorted({src for __, src, __ in flits})
    ]
    for sender in senders:
        sim.register(sender).wake()
    probe = Probe(fabric, snapshot)
    sim.register(probe).wake()
    sim.run(
        max_cycles=400,
        until=lambda: (
            not fabric.flits_in_network
            and not any(sender.flits for sender in senders)
        ),
    )
    assert not fabric.flits_in_network, "scenario did not drain"
    latency = fabric.latency
    return {
        "frames": probe.frames,
        "ejections": [
            (cycle, node, uid(flit), flit.data, flit.hops, flit.deflections)
            for cycle, node, flit in log
        ],
        "counters": list(fabric.stats.as_dict().items()),
        "latency": (latency.count, latency.total, latency.min, latency.max,
                    list(latency.buckets)),
        "injected": [port.inject.injected for port in fabric.ports],
        "stalls": [port.inject.stalled_cycles for port in fabric.ports],
    }


TOPOLOGIES = {
    "mesh": lambda: MeshTopology(3, 3),
    "torus": lambda: FoldedTorusTopology(4, 4),
    "chiplet-hub": lambda: ChipletTopology(3, 2, 2, link_latency=1),
    "chiplet-slow": lambda: ChipletTopology(
        3, 2, 2, link_latency=3, link_serialization=2
    ),
    "chiplet-narrow": lambda: ChipletTopology(
        3, 2, 2, link_latency=1, link_serialization=2
    ),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_fabric_matches_reference_step(name, monkeypatch):
    make_topology = TOPOLOGIES[name]
    rng = random.Random(f"fabric-golden-{name}")
    lone_steps = 0
    real_lone = NocFabric._step_lone

    def counting_lone(self, *args):
        nonlocal lone_steps
        routed = real_lone(self, *args)
        lone_steps += routed
        return routed

    monkeypatch.setattr(NocFabric, "_step_lone", counting_lone)
    n_nodes = make_topology().n_nodes
    for case in range(150):
        specs = _scenario(rng, n_nodes)
        eject_capacity = 2 if case % 5 == 4 else 1
        expected = _run(ReferenceFabric, make_topology, specs, eject_capacity)
        got = _run(NocFabric, make_topology, specs, eject_capacity)
        for key in expected:
            assert got[key] == expected[key], (case, specs, key)
    # The fast path must actually have been taken for this to mean much.
    assert lone_steps > 100
