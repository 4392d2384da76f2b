"""NoC fabric: end-to-end delivery, conservation, timing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PacketFormatError, ProtocolError
from repro.kernel.component import Component
from repro.kernel.simulator import Simulator
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.topology import (
    ChipletTopology,
    FoldedTorusTopology,
    MeshTopology,
)


class Collector(Component):
    """Drains an ejection queue, recording (cycle, flit)."""

    def __init__(self, fabric: NocFabric, node: int) -> None:
        super().__init__(f"collector[{node}]")
        self.port = fabric.ports_of(node)
        self.port.eject.owner = self
        self.received: list[tuple[int, Flit]] = []

    def step(self, cycle: int) -> None:
        queue = self.port.eject.queue
        while queue:
            self.received.append((cycle, queue.pop()))
        self.sleep()


def build(width: int = 4, height: int = 4) -> tuple[Simulator, NocFabric]:
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(width, height))
    sim.register(fabric)
    return sim, fabric


def test_single_flit_delivery_and_latency():
    sim, fabric = build()
    collector = Collector(fabric, 5)
    sim.register(collector)
    flit = Flit(dst=5, src=0, ptype=PacketType.MESSAGE, data=42)
    assert fabric.ports_of(0).inject.try_inject(flit)
    sim.run(max_cycles=50)
    assert len(collector.received) == 1
    cycle, received = collector.received[0]
    assert received.data == 42
    hops = fabric.topology.hop_distance(0, 5)
    assert received.hops == hops
    # One cycle per hop plus the injection cycle.
    assert fabric.latency.max == hops + 1


def test_self_addressed_flit_bypasses_network():
    sim, fabric = build()
    collector = Collector(fabric, 3)
    sim.register(collector)
    flit = Flit(dst=3, src=3, ptype=PacketType.MESSAGE, data=7)
    fabric.ports_of(3).inject.try_inject(flit)
    sim.run(max_cycles=10)
    assert len(collector.received) == 1
    assert collector.received[0][1].hops == 0


def test_injection_port_busy_until_accepted():
    __, fabric = build()
    port = fabric.ports_of(0).inject
    assert port.try_inject(Flit(dst=1, src=0, ptype=PacketType.MESSAGE))
    assert port.busy
    assert not port.try_inject(Flit(dst=2, src=0, ptype=PacketType.MESSAGE))


def test_flit_endpoints_validated():
    __, fabric = build()
    with pytest.raises(ProtocolError):
        fabric.ports_of(0).inject.try_inject(
            Flit(dst=99, src=0, ptype=PacketType.MESSAGE)
        )


def test_strict_encoding_validates_wire_fit():
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(4, 4), strict_encoding=True)
    sim.register(fabric)
    good = Flit(dst=1, src=0, ptype=PacketType.MESSAGE, data=0xFFFF_FFFF)
    assert fabric.ports_of(0).inject.try_inject(good)
    with pytest.raises(PacketFormatError):
        # data wider than 32 bits cannot be encoded
        fabric.ports_of(2).inject.try_inject(
            Flit(dst=1, src=2, ptype=PacketType.MESSAGE, data=1 << 33)
        )


def test_fabric_sleeps_when_empty():
    sim, fabric = build()
    collector = Collector(fabric, 1)
    sim.register(collector)
    fabric.ports_of(0).inject.try_inject(
        Flit(dst=1, src=0, ptype=PacketType.MESSAGE)
    )
    sim.run(max_cycles=100)
    assert not fabric.active
    assert fabric.flits_in_network == 0


def test_all_to_one_delivery_conserves_flits():
    sim, fabric = build()
    collector = Collector(fabric, 0)
    sim.register(collector)
    sinks = [Collector(fabric, node) for node in range(1, 16)]
    for sink in sinks:
        sim.register(sink)
    sent = 0
    for node in range(1, 16):
        fabric.ports_of(node).inject.try_inject(
            Flit(dst=0, src=node, ptype=PacketType.MESSAGE, data=node)
        )
        sent += 1
    sim.run(max_cycles=500)
    assert len(collector.received) == sent
    assert fabric.stats["flits_injected"] == sent
    assert fabric.stats["flits_ejected"] == sent
    assert fabric.flits_in_network == 0


def test_eject_width_one_serializes_arrivals():
    sim, fabric = build()
    collector = Collector(fabric, 0)
    sim.register(collector)
    for node in (1, 4, 12, 3):  # all one hop from node 0 on the torus
        fabric.ports_of(node).inject.try_inject(
            Flit(dst=0, src=node, ptype=PacketType.MESSAGE)
        )
    sim.run(max_cycles=100)
    cycles = sorted(cycle for cycle, __ in collector.received)
    assert len(cycles) == 4
    assert len(set(cycles)) == 4  # one ejection per cycle


class Flood(Component):
    """Saturating source: injects every cycle while it can."""

    def __init__(self, fabric: NocFabric, node: int, n_nodes: int,
                 count: int, seed: int) -> None:
        super().__init__(f"flood[{node}]")
        self.fabric = fabric
        self.node = node
        self.port = fabric.ports_of(node)
        self.port.eject.owner = self
        self.rng = random.Random(seed)
        self.remaining = count
        self.n_nodes = n_nodes
        self.received = 0
        self.active = True

    def step(self, cycle: int) -> None:
        queue = self.port.eject.queue
        while queue:
            queue.pop()
            self.received += 1
        if self.remaining <= 0:
            if self.fabric.flits_in_network == 0:
                self.sleep()
            return
        if not self.port.inject.busy:
            dst = self.rng.randrange(self.n_nodes - 1)
            if dst >= self.node:
                dst += 1
            self.port.inject.try_inject(
                Flit(dst=dst, src=self.node, ptype=PacketType.MESSAGE)
            )
            self.remaining -= 1


def test_saturating_load_delivers_everything():
    """Livelock check: oldest-first deflection drains a saturated torus."""
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(4, 4))
    sim.register(fabric)
    sources = [Flood(fabric, node, 16, count=50, seed=node) for node in range(16)]
    for source in sources:
        sim.register(source)
    sim.run(max_cycles=20_000)
    assert fabric.flits_in_network == 0
    assert fabric.stats["flits_injected"] == 16 * 50
    assert fabric.stats["flits_ejected"] == 16 * 50
    assert fabric.stats["deflections"] > 0  # the load actually contended


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    width=st.sampled_from([2, 3, 4]),
    height=st.sampled_from([2, 3, 4]),
)
def test_random_traffic_conservation_property(seed, width, height):
    """Every injected flit is ejected exactly once, any grid, any pattern."""
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(width, height))
    sim.register(fabric)
    n = width * height
    sources = [
        Flood(fabric, node, n, count=10, seed=seed * 31 + node)
        for node in range(n)
    ]
    for source in sources:
        sim.register(source)
    sim.run(max_cycles=50_000)
    assert fabric.stats["flits_injected"] == n * 10
    assert fabric.stats["flits_ejected"] == n * 10
    assert fabric.flits_in_network == 0


def test_mean_latency_reasonable_under_light_load():
    sim, fabric = build()
    sinks = [Collector(fabric, node) for node in range(16)]
    for sink in sinks:
        sim.register(sink)
    for node in range(16):
        dst = (node + 1) % 16
        fabric.ports_of(node).inject.try_inject(
            Flit(dst=dst, src=node, ptype=PacketType.MESSAGE)
        )
    sim.run(max_cycles=200)
    # Light load: latency should be close to hop distance + injection.
    assert fabric.latency.mean <= 6.0


def _slow_chiplets() -> ChipletTopology:
    """4x(2x2) package: IO hub at node 0, gateways at nodes 1/5/9/13,
    inter-chiplet links 4 cycles long and 2 cycles per flit wide."""
    return ChipletTopology(4, 2, 2, link_latency=4, link_serialization=2)


#: One flit alone in the network, injected at cycle 0: (topology, src,
#: dst) -> (eject cycle, latency, hops, fabric counters).  The chiplet
#: cases include hops over the slow inter-chiplet links, which must not
#: be timed as one-cycle hops.
LONE_FLIT_CASES = {
    "mesh-corner-to-corner": (
        lambda: MeshTopology(4, 4), 0, 15, (6, 7, 6),
    ),
    "torus-wrap": (
        lambda: FoldedTorusTopology(4, 4), 0, 10, (4, 5, 4),
    ),
    "chiplet-cross-package": (_slow_chiplets, 4, 16, (12, 13, 6)),
    "chiplet-tile-to-hub": (_slow_chiplets, 4, 0, (6, 7, 3)),
    "chiplet-hub-to-tile": (_slow_chiplets, 0, 16, (6, 7, 3)),
    "chiplet-gateway-to-hub": (_slow_chiplets, 5, 0, (4, 5, 1)),
    "chiplet-intra-chiplet": (_slow_chiplets, 2, 3, (2, 3, 2)),
}


@pytest.mark.parametrize("case", sorted(LONE_FLIT_CASES))
def test_lone_flit_timing_and_counters(case):
    """A flit alone in the fabric: exact eject cycle, latency, hop count
    and fabric counters, over one-cycle and slow, serialized links."""
    make_topology, src, dst, expected = LONE_FLIT_CASES[case]
    eject_cycle, latency, hops = expected
    sim = Simulator()
    fabric = NocFabric(make_topology())
    sim.register(fabric)
    collector = Collector(fabric, dst)
    sim.register(collector)
    flit = Flit(dst=dst, src=src, ptype=PacketType.MESSAGE, data=5)
    assert fabric.ports_of(src).inject.try_inject(flit)
    sim.run(max_cycles=200)
    assert collector.received == [(eject_cycle, flit)]
    assert flit.hops == hops
    assert flit.injected_at == 0
    assert fabric.latency.count == 1
    assert fabric.latency.total == latency
    assert list(fabric.stats.as_dict().items()) == [
        ("flits_injected", 1), ("flits_ejected", 1), ("flit_hops", hops),
    ]
    assert fabric.ports_of(src).inject.injected == 1
    assert fabric.flits_in_network == 0
    assert not fabric.active


class Sender(Component):
    """Injects one scheduled flit per listed cycle from one node."""

    def __init__(self, fabric: NocFabric, node: int, schedule) -> None:
        super().__init__(f"sender[{node}]")
        self.port = fabric.ports_of(node).inject
        self.schedule = dict(schedule)  # cycle -> flit

    def step(self, cycle: int) -> None:
        flit = self.schedule.pop(cycle, None)
        if flit is not None:
            assert self.port.try_inject(flit)
        if self.schedule:
            self.sleep(until=min(self.schedule))
        else:
            self.sleep()


def test_serialized_link_holds_its_wire_after_a_lone_flit():
    """A one-cycle link that takes two cycles per flit: the first flit
    crosses it alone, and the wire stays busy for the follower sent one
    cycle later, which therefore lands one cycle late."""
    sim = Simulator()
    fabric = NocFabric(
        ChipletTopology(2, 2, 2, link_latency=1, link_serialization=2)
    )
    sim.register(fabric)
    hub = Collector(fabric, 0)
    sim.register(hub)
    first = Flit(dst=0, src=1, ptype=PacketType.MESSAGE, data=1)
    second = Flit(dst=0, src=1, ptype=PacketType.MESSAGE, data=2)
    sim.register(Sender(fabric, 1, {0: first, 1: second})).wake()
    sim.run(max_cycles=100)
    # Accepted at cycles 1 and 2; the first occupies the wire for
    # cycles 1-2, so the second crosses at 3 instead of 2.
    assert hub.received == [(2, first), (4, second)]
    assert (first.injected_at, second.injected_at) == (1, 2)
    assert fabric.latency.total == 2 + 3
