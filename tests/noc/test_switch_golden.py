"""Golden-equivalence property test for the optimized deflection router.

``_reference_route_node`` below is a deliberately straightforward
transcription of the original (pre-optimization) switch: free ports as a
set, unconditional sorting, productive directions through the topology
method.  The optimized ``route_node`` (bitmasks, skipped sorts, scratch
reuse) must produce identical outcomes flit-for-flit over randomized
configurations on both torus and mesh topologies — including the mutation
of per-flit deflection counters.  ``_reference_route_mixed`` does the same
for mixed unicast/multicast inputs (see its section below).
"""

from __future__ import annotations

import random

from repro.noc.flit import Flit
from repro.noc.packet import PacketType
from repro.noc.switch import RoutingOutcome, route_node
from repro.noc.topology import (
    ChipletTopology,
    FoldedTorusTopology,
    MeshTopology,
)


def _reference_route_node(node, inputs, inject, topology, eject_capacity=1):
    """The seed implementation of route_node, kept verbatim-simple."""
    ports = topology.ports_of(node)

    arrived = [flit for flit in inputs if flit.dst == node]
    transit = [flit for flit in inputs if flit.dst != node]

    arrived.sort(key=Flit.age_key)
    ejected = arrived[:eject_capacity]
    recirculating = arrived[eject_capacity:]
    eject_overflow = len(recirculating)

    outputs = [None, None, None, None]
    deflections = 0
    free = set(ports)

    contenders = sorted(transit + recirculating, key=Flit.age_key)
    for flit in contenders:
        placed = False
        for direction in topology.productive_directions(node, flit.dst):
            if direction in free:
                outputs[direction] = flit
                free.discard(direction)
                placed = True
                break
        if not placed:
            for direction in ports:
                if direction in free:
                    outputs[direction] = flit
                    free.discard(direction)
                    placed = True
                    flit.deflections += 1
                    deflections += 1
                    break
        assert placed
    injected = False
    if inject is not None and free:
        for direction in topology.productive_directions(node, inject.dst):
            if direction in free:
                outputs[direction] = inject
                free.discard(direction)
                injected = True
                break
        if not injected:
            direction = min(free)
            outputs[direction] = inject
            free.discard(direction)
            injected = True
    return RoutingOutcome(ejected, outputs, injected, deflections,
                          eject_overflow)


def _random_flit(rng, n_nodes, uid):
    return Flit(
        dst=rng.randrange(n_nodes),
        src=rng.randrange(n_nodes),
        ptype=PacketType.MESSAGE,
        uid=uid,
        injected_at=rng.randrange(0, 50),
        deflections=rng.randrange(0, 3),
    )


def _clone(flit):
    return Flit(
        dst=flit.dst, src=flit.src, ptype=flit.ptype, subtype=flit.subtype,
        seq=flit.seq, burst=flit.burst, data=flit.data, uid=flit.uid,
        injected_at=flit.injected_at, hops=flit.hops,
        deflections=flit.deflections,
    )


def _assert_same_outcome(case, got, expected, flits, ref_flits):
    got_ej = [f.uid for f in got.ejected]
    exp_ej = [f.uid for f in expected.ejected]
    assert got_ej == exp_ej, f"{case}: ejected differ {got_ej} != {exp_ej}"
    got_out = [f.uid if f is not None else None for f in got.outputs]
    exp_out = [f.uid if f is not None else None for f in expected.outputs]
    assert got_out == exp_out, f"{case}: outputs differ {got_out} != {exp_out}"
    assert got.injected == expected.injected, f"{case}: injected differs"
    assert got.deflections == expected.deflections, f"{case}: deflections"
    assert got.eject_overflow == expected.eject_overflow, f"{case}: overflow"
    # The per-flit deflection counters must mutate identically.
    for mine, ref in zip(flits, ref_flits):
        assert mine.deflections == ref.deflections, (
            f"{case}: flit #{mine.uid} deflection counter diverged"
        )


def _run_equivalence(topology, rng, rounds, reuse_scratch):
    n_nodes = topology.n_nodes
    scratch = RoutingOutcome() if reuse_scratch else None
    uid = 0
    for case in range(rounds):
        node = rng.randrange(n_nodes)
        ports = topology.ports_of(node)
        n_inputs = rng.randrange(0, len(ports) + 1)
        flits = []
        for _ in range(n_inputs):
            flits.append(_random_flit(rng, n_nodes, uid))
            uid += 1
        inject = None
        if rng.random() < 0.7:
            inject = _random_flit(rng, n_nodes, uid)
            # The fabric strips self-addressed injections before routing.
            if inject.dst == node:
                inject.dst = (node + 1) % n_nodes
            uid += 1
        eject_capacity = rng.choice((1, 2))

        ref_flits = [_clone(f) for f in flits]
        ref_inject = _clone(inject) if inject is not None else None
        expected = _reference_route_node(
            node, ref_flits, ref_inject, topology, eject_capacity
        )
        got = route_node(node, flits, inject, topology, eject_capacity,
                         out=scratch)
        _assert_same_outcome(
            f"case {case} node {node}", got, expected,
            flits + ([inject] if inject else []),
            ref_flits + ([ref_inject] if ref_inject else []),
        )


def test_optimized_router_matches_reference_on_torus():
    rng = random.Random(0xC0FFEE)
    _run_equivalence(FoldedTorusTopology(4, 4), rng, rounds=2000,
                     reuse_scratch=False)


def test_optimized_router_matches_reference_on_torus_with_scratch_reuse():
    rng = random.Random(0xBEEF)
    _run_equivalence(FoldedTorusTopology(3, 3), rng, rounds=2000,
                     reuse_scratch=True)


def test_optimized_router_matches_reference_on_mesh():
    # Mesh corners/edges have fewer ports, exercising partial port masks.
    rng = random.Random(42)
    _run_equivalence(MeshTopology(4, 3), rng, rounds=2000,
                     reuse_scratch=True)


def test_scratch_reuse_is_equivalent_to_fresh_outcomes():
    topo = FoldedTorusTopology(4, 4)
    rng = random.Random(7)
    scratch = RoutingOutcome()
    uid = 0
    for _ in range(500):
        node = rng.randrange(topo.n_nodes)
        flits, clones = [], []
        for _ in range(rng.randrange(0, 5)):
            flit = _random_flit(rng, topo.n_nodes, uid)
            uid += 1
            flits.append(flit)
            clones.append(_clone(flit))
        fresh = route_node(node, clones, None, topo)
        reused = route_node(node, flits, None, topo, out=scratch)
        assert [f.uid for f in reused.ejected] == [f.uid for f in fresh.ejected]
        assert (
            [f.uid if f else None for f in reused.outputs]
            == [f.uid if f else None for f in fresh.outputs]
        )
        assert reused.deflections == fresh.deflections
        assert reused.eject_overflow == fresh.eject_overflow


# -- multicast ---------------------------------------------------------------
#
# ``_reference_route_mixed`` transcribes the multicast router without its
# single-destination path: every mask, whatever its population, goes
# through the branch splitter (partition by preferred
# direction, one copy per free branch port, merge-back, whole-flit
# deflection).  Free ports are a set and every list is sorted, so the
# transcription stays readable; ``route_node`` must agree with it flit for
# flit, including replica fields and per-flit counters.


def _members(mask):
    return [node for node in range(mask.bit_length()) if mask >> node & 1]


def _reference_route_mixed(node, inputs, inject, topology, eject_capacity,
                           port_mask=-1, productive=None):
    if productive is None:
        productive = topology.productive_table
    n = topology.n_nodes
    ports = topology.ports_of(node)
    outputs = [None] * topology.max_ports
    if port_mask < 0:
        free = set(ports)
    else:
        free = {p for p in range(topology.max_ports) if port_mask >> p & 1}
    flits = [flit for flit in inputs if flit is not None]
    arrived = sorted((f for f in flits if f.dst == node), key=Flit.age_key)
    ejected = arrived[:eject_capacity]
    recirculating = arrived[eject_capacity:]
    eject_overflow = len(recirculating)
    counters = {"deflections": 0, "copies": 0}

    def deflect_or_spill(flit, count, spill, before_place=None):
        for direction in ports:
            if direction in free:
                if before_place is not None:
                    before_place()
                outputs[direction] = flit
                free.discard(direction)
                if count:
                    flit.deflections += 1
                    counters["deflections"] += 1
                return True
        if spill:
            for direction in ports:
                if outputs[direction] is None:
                    if before_place is not None:
                        before_place()
                    outputs[direction] = flit
                    flit.deflections += 1
                    counters["deflections"] += 1
                    return True
        return False

    unicast = [f for f in flits if f.dst >= 0 and f.dst != node]
    for flit in sorted(unicast + recirculating, key=Flit.age_key):
        placed = False
        for direction in productive[node * n + flit.dst]:
            if direction in free:
                outputs[direction] = flit
                free.discard(direction)
                placed = True
                break
        if not placed:
            placed = deflect_or_spill(flit, True, port_mask >= 0)
        assert placed

    def copy_of(flit, dst, dst_mask):
        counters["copies"] += 1
        return Flit(
            dst=dst, src=flit.src, ptype=flit.ptype, subtype=flit.subtype,
            seq=flit.seq, burst=flit.burst, data=flit.data,
            dst_mask=dst_mask, crc=flit.crc, injected_at=flit.injected_at,
            hops=flit.hops, deflections=flit.deflections,
        )

    def split(flit, reserve, must_place):
        local = flit.dst_mask & (1 << node)
        branches = {}
        for dst in _members(flit.dst_mask & ~local):
            dirs = productive[node * n + dst]
            if dirs:
                branches[dirs[0]] = branches.get(dirs[0], 0) | (1 << dst)
            else:
                local |= 1 << dst
        deferred = local
        first = None
        for direction in sorted(branches):
            branch = branches[direction]
            if direction in free and (
                first is None
                or len(free) > reserve + topology.mcast_split_slack
            ):
                if first is None:
                    flit.dst_mask = branch
                    outputs[direction] = flit
                    first = flit
                else:
                    outputs[direction] = copy_of(flit, flit.dst, branch)
                free.discard(direction)
            else:
                deferred |= branch
        if first is not None:
            first.dst_mask |= deferred
            return True

        def keep_deferred():
            flit.dst_mask = deferred

        return deflect_or_spill(
            flit, must_place, must_place and port_mask >= 0, keep_deferred
        )

    mcast = sorted((f for f in flits if f.dst < 0), key=Flit.age_key)
    budget = eject_capacity - len(ejected)
    for index, flit in enumerate(mcast):
        local = 1 << node
        if flit.dst_mask & local:
            if budget > 0:
                budget -= 1
                rest = flit.dst_mask & ~local
                if not rest:
                    flit.dst = node
                    flit.dst_mask = 0
                    ejected.append(flit)
                    continue
                ejected.append(copy_of(flit, node, local))
                flit.dst_mask = rest
            else:
                eject_overflow += 1
        assert split(flit, len(mcast) - index - 1, must_place=True)

    injected = False
    if inject is not None and free:
        if inject.dst < 0:
            injected = split(inject, 0, must_place=False)
        else:
            for direction in productive[node * n + inject.dst]:
                if direction in free:
                    outputs[direction] = inject
                    injected = True
                    break
            if not injected:
                outputs[min(free)] = inject
                injected = True
    return RoutingOutcome(
        ejected, outputs, injected, counters["deflections"], eject_overflow,
        counters["copies"],
    )


def _random_mask(rng, n_nodes, exclude=-1):
    """A destination mask: one node about half the time, else several."""
    candidates = [node for node in range(n_nodes) if node != exclude]
    count = 1 if rng.random() < 0.5 else rng.randrange(2, min(6, n_nodes))
    mask = 0
    for node in rng.sample(candidates, min(count, len(candidates))):
        mask |= 1 << node
    return mask


def _random_mixed_flit(rng, node, n_nodes, uid, mcast_share):
    if rng.random() >= mcast_share:
        return _random_flit(rng, n_nodes, uid)
    if rng.random() < 0.35:
        # Local bit set: ejects a copy here, or overflows and recirculates.
        mask = (1 << node) | (
            _random_mask(rng, n_nodes, exclude=node) if rng.random() < 0.6
            else 0
        )
    else:
        mask = _random_mask(rng, n_nodes, exclude=node)
    return Flit(
        dst=-1, src=rng.randrange(n_nodes), ptype=PacketType.MULTICAST,
        dst_mask=mask, uid=uid, injected_at=rng.randrange(0, 50),
        deflections=rng.randrange(0, 3), data=rng.randrange(1 << 16),
    )


def _clone_mixed(flit):
    clone = _clone(flit)
    clone.dst_mask = flit.dst_mask
    return clone


def _flit_view(flit, originals):
    """Comparable fields; replicas (fresh uids) are named by their fields."""
    if flit is None:
        return None
    uid = flit.uid if flit.uid in originals else "copy"
    return (uid, flit.dst, flit.dst_mask, flit.src, flit.data,
            flit.injected_at, flit.deflections)


def _assert_same_mixed(case, got, expected, flits, ref_flits, originals):
    def view(flit):
        return _flit_view(flit, originals)

    assert [view(f) for f in got.ejected] == [
        view(f) for f in expected.ejected
    ], f"{case}: ejected differ"
    assert [view(f) for f in got.outputs] == [
        view(f) for f in expected.outputs
    ], f"{case}: outputs differ"
    assert got.injected == expected.injected, f"{case}: injected differs"
    assert got.deflections == expected.deflections, f"{case}: deflections"
    assert got.eject_overflow == expected.eject_overflow, f"{case}: overflow"
    assert got.flit_copies == expected.flit_copies, f"{case}: flit_copies"
    for mine, ref in zip(flits, ref_flits):
        assert (mine.dst, mine.dst_mask, mine.deflections) == (
            ref.dst, ref.dst_mask, ref.deflections
        ), f"{case}: flit #{mine.uid} state diverged"


def _run_mixed_equivalence(topology, rng, rounds, mcast_share=0.6,
                           masked=0.25, rerouted=0.0, nodes=None):
    """Random mixed unicast/multicast cases against the reference.

    ``masked`` is the share of cases with a fault ``port_mask`` (a random
    subset of the node's ports; with more flits than live ports the
    excess spills), ``rerouted`` the share routed through a productive
    table with some entries emptied (unreachable destinations).
    """
    n_nodes = topology.n_nodes
    scratch = RoutingOutcome(n_ports=topology.max_ports)
    uid = 1_000_000
    for case in range(rounds):
        node = rng.choice(nodes) if nodes else rng.randrange(n_nodes)
        ports = topology.ports_of(node)
        flits = []
        for _ in range(rng.randrange(0, len(ports) + 1)):
            flits.append(
                _random_mixed_flit(rng, node, n_nodes, uid, mcast_share)
            )
            uid += 1
        inject = None
        if rng.random() < 0.7:
            if rng.random() < mcast_share:
                inject = Flit(
                    dst=-1, src=node, ptype=PacketType.MULTICAST,
                    dst_mask=_random_mask(rng, n_nodes, exclude=node),
                    uid=uid, injected_at=rng.randrange(0, 50),
                )
            else:
                inject = _random_flit(rng, n_nodes, uid)
                if inject.dst == node:
                    inject.dst = (node + 1) % n_nodes
            uid += 1
        port_mask = -1
        if rng.random() < masked:
            port_mask = 0
            for port in ports:
                if rng.random() < 0.6:
                    port_mask |= 1 << port
        productive = None
        if rng.random() < rerouted:
            productive = list(topology.productive_table)
            for dst in rng.sample(range(n_nodes), max(1, n_nodes // 4)):
                productive[node * n_nodes + dst] = ()
        eject_capacity = rng.choice((1, 1, 2))

        ref_flits = [_clone_mixed(f) for f in flits]
        ref_inject = _clone_mixed(inject) if inject is not None else None
        expected = _reference_route_mixed(
            node, ref_flits, ref_inject, topology, eject_capacity,
            port_mask=port_mask, productive=productive,
        )
        # The fabric hands the router its register row, idle links as None.
        row = list(flits) + [None] * (topology.max_ports - len(flits))
        rng.shuffle(row)
        got = route_node(
            node, row, inject, topology, eject_capacity, out=scratch,
            port_mask=port_mask, productive=productive,
        )
        mine = flits + ([inject] if inject else [])
        refs = ref_flits + ([ref_inject] if ref_inject else [])
        _assert_same_mixed(
            f"case {case} node {node}", got, expected, mine, refs,
            {f.uid for f in mine},
        )


def test_multicast_router_matches_reference_on_mesh():
    _run_mixed_equivalence(MeshTopology(4, 4), random.Random(11), 3000)


def test_multicast_router_matches_reference_on_torus():
    _run_mixed_equivalence(FoldedTorusTopology(4, 4), random.Random(12), 3000,
                           rerouted=0.15)


def test_multicast_router_matches_reference_on_chiplet_hub():
    topo = ChipletTopology(4, 2, 2)
    # Half the cases at the hub (node 0, one port per chiplet), half at
    # gateways and chiplet tiles.
    _run_mixed_equivalence(topo, random.Random(13), 1500, nodes=[0],
                           rerouted=0.1)
    _run_mixed_equivalence(topo, random.Random(14), 1500)


def test_single_destination_multicast_matches_reference():
    # Only single-member masks (the DMA ring's neighbour sends), with the
    # local-bit overflow and fault-mask cases weighted up.
    rng = random.Random(15)
    for topo in (MeshTopology(3, 3), FoldedTorusTopology(4, 4),
                 ChipletTopology(2, 2, 2)):
        _run_single_mask_equivalence(topo, rng)


def _run_single_mask_equivalence(topology, rng):
    n_nodes = topology.n_nodes
    uid = 2_000_000
    for case in range(1500):
        node = rng.randrange(n_nodes)
        ports = topology.ports_of(node)
        flits = []
        for _ in range(rng.randrange(1, len(ports) + 1)):
            dst = node if rng.random() < 0.3 else rng.randrange(n_nodes)
            flits.append(Flit(
                dst=-1, src=rng.randrange(n_nodes), ptype=PacketType.MULTICAST,
                dst_mask=1 << dst, uid=uid, injected_at=rng.randrange(0, 8),
                deflections=rng.randrange(0, 3),
            ))
            uid += 1
        inject = None
        if rng.random() < 0.8:
            dst = rng.choice([d for d in range(n_nodes) if d != node])
            inject = Flit(dst=-1, src=node, ptype=PacketType.MULTICAST,
                          dst_mask=1 << dst, uid=uid,
                          injected_at=rng.randrange(0, 8))
            uid += 1
        port_mask = -1
        if rng.random() < 0.3:
            port_mask = sum(1 << p for p in ports if rng.random() < 0.5)
        ref_flits = [_clone_mixed(f) for f in flits]
        ref_inject = _clone_mixed(inject) if inject is not None else None
        expected = _reference_route_mixed(
            node, ref_flits, ref_inject, topology, 1, port_mask=port_mask,
        )
        got = route_node(node, flits, inject, topology, 1,
                         port_mask=port_mask)
        mine = flits + ([inject] if inject else [])
        refs = ref_flits + ([ref_inject] if ref_inject else [])
        _assert_same_mixed(
            f"single case {case} node {node}", got, expected, mine, refs,
            {f.uid for f in mine},
        )
