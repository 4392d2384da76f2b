"""The clocked NoC fabric: link registers, injection and ejection ports.

The fabric is a single :class:`~repro.kernel.component.Component` stepped
once per cycle while any flit is in flight or any injection slot is
pending.  All switches route combinationally against the *previous* cycle's
link registers (two-phase update), so results are independent of node
iteration order — matching the synchronous RTL the paper pairs with its
SystemC model.

Timing contract (one hop = one cycle):

* a flit accepted from an injection slot at cycle *c* is latched in the
  neighbor's input register and visible there at *c+1*;
* ejection pushes into the node's RX queue during the fabric step, and the
  owning node (stepped after the fabric in the same cycle — registration
  order) may consume it immediately, modelling the direct TIE connection
  into the processor register file.

Lone-flit path.  Shared-memory traffic is a request/reply exchange with
the single MPMMU, so most cycles see exactly one flit in the network (on
the write-through Jacobi point, 95% of fabric steps).  With no fault
injector and no spatial counters, a step that holds one unicast flit
skips the switch: the flit has no contender, so its first productive
port is always attached and free, and :meth:`NocFabric._step_lone`
latches it there (or ejects it at its destination) exactly as
:func:`~repro.noc.switch.route_node` and the commit phase would — same
cycle, hop count, counters in the same key order, latency record and
in-cycle RX wake.  Everything else takes the general step: self-addressed
and multicast flits, and any hop over a slow or serialized link (whose
wire occupancy and delayed delivery live there).  The fabric-level
golden-equivalence test (``tests/noc/test_fabric_golden.py``) checks it
cycle by cycle against a transcription of the general step.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.errors import ProtocolError, SimulationError
from repro.kernel.component import Component
from repro.kernel.fifo import Fifo
from repro.kernel.stats import LatencyStat
from repro.kernel.trace import Tracer
from repro.noc.flit import Flit
from repro.noc.packet import FlitCodec, PacketType
from repro.noc.switch import RoutingOutcome, route_node
from repro.noc.topology import Topology


class InjectionPort:
    """Single-register injection slot between a node and its switch.

    The node's arbiter writes one flit at a time with :meth:`try_inject`;
    the fabric drains the slot when routing permits (an output port must be
    free, the deflection-network injection rule).
    """

    __slots__ = ("node", "fabric", "pending", "stalled_cycles", "injected")

    def __init__(self, node: int, fabric: "NocFabric") -> None:
        self.node = node
        self.fabric = fabric
        self.pending: Flit | None = None
        self.stalled_cycles = 0
        self.injected = 0

    @property
    def busy(self) -> bool:
        return self.pending is not None

    def try_inject(self, flit: Flit) -> bool:
        """Offer a flit to the network; False when the slot is still busy."""
        if self.pending is not None:
            return False
        fabric = self.fabric
        if fabric.faults is not None:
            fabric.faults.stamp(flit)
        # Inline validate_flit's checks, unicast and multicast; the full
        # check (with its error message / strict wire encoding) runs only
        # when one of them fails.
        n = fabric.topology.n_nodes
        src = flit.src
        dst = flit.dst
        if fabric.strict_encoding or not (
            0 <= src < n
            and (
                dst < n if dst >= 0 else (
                    flit.ptype is PacketType.MULTICAST
                    and 0 < flit.dst_mask < 1 << n
                    and not flit.dst_mask >> src & 1
                )
            )
        ):
            fabric.validate_flit(flit)
        self.pending = flit
        fabric._work.add(self.node)
        fabric._flit_count += 1
        fabric.wake()
        return True


class EjectionPort:
    """RX side of a node: flits leave the network into this queue.

    The queue is backed by local memory in the real design (the TIE
    interface scatters arrivals straight into the processor data RAM), so
    it is modelled unbounded; the network still ejects at most
    ``eject_capacity`` flits per cycle.
    """

    __slots__ = ("node", "queue", "owner")

    def __init__(self, node: int) -> None:
        self.node = node
        self.queue: Fifo[Flit] = Fifo(capacity=None, name=f"eject[{node}]")
        self.owner: Component | None = None

    def deliver(self, flit: Flit) -> None:
        self.queue.push(flit)
        if self.owner is not None:
            self.owner.wake()


class NodePorts:
    """The pair of ports a node uses to talk to the NoC."""

    __slots__ = ("node", "inject", "eject")

    def __init__(self, node: int, inject: InjectionPort, eject: EjectionPort):
        self.node = node
        self.inject = inject
        self.eject = eject


class SpatialCounters:
    """Per-link / per-switch matrices for the telemetry heatmap view.

    Opt-in (:meth:`NocFabric.enable_spatial`): when absent the fabric's
    hot path pays only an is-it-None check, preserving bit-identical
    goldens and PR-1's allocation-free step.
    """

    __slots__ = ("link_transits", "switch_deflections", "node_ejects")

    def __init__(self, n_nodes: int, n_ports: int = 4) -> None:
        #: ``[receiver][in_port]`` -> flits latched off that input link.
        self.link_transits = [[0] * n_ports for _ in range(n_nodes)]
        self.switch_deflections = [0] * n_nodes
        self.node_ejects = [0] * n_nodes


class NocFabric(Component):
    """All switches and links of the network, stepped as one component."""

    def __init__(
        self,
        topology: Topology,
        eject_capacity: int = 1,
        strict_encoding: bool = False,
        tracer: Tracer | None = None,
        faults=None,
    ) -> None:
        super().__init__("noc")
        self.topology = topology
        self.eject_capacity = eject_capacity
        self.strict_encoding = strict_encoding
        #: Optional :class:`repro.faults.FaultInjector` — the single hook
        #: behind which every fault-layer branch hides; None keeps the
        #: fault-free hot path allocation-free and bit-identical.
        self.faults = faults
        # Every node must be nameable in a multicast mask; on networks
        # bigger than the base format's spare bits the codec widens the
        # header (the two-flit-header extension in packet.py).  With the
        # fault layer active the wire format also carries the reliable-
        # delivery extension: a 16-bit sequence number (so retransmits
        # place exactly, with duplicates detected rather than aliased)
        # and an 8-bit end-to-end checksum trailer, both absorbed by the
        # same whole-byte widening rule as the multicast mask.
        self.codec = FlitCodec(
            topology.width, topology.height,
            min_mask_bits=topology.n_nodes,
            seq_bits=16 if faults is not None else 4,
            crc_bits=8 if faults is not None else 0,
            # The base format's 4 source bits cover up to 16 tiles; larger
            # coordinate planes (chiplet systems address hundreds) widen
            # the field, absorbed by the whole-byte widening rule.
            src_bits=max(
                4, (topology.width * topology.height - 1).bit_length()
            ),
        )
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        n = topology.n_nodes
        n_ports = topology.max_ports
        self._n_ports = n_ports
        # regs[node][in_port] = flit latched on that input link.
        self.regs: list[list[Flit | None]] = [
            [None] * n_ports for _ in range(n)
        ]
        # Non-uniform links (latency > 1 or serialization > 1, the
        # inter-chiplet case) deliver through a timestamped heap instead
        # of the commit phase: (due_cycle, seq, node, in_port, flit).
        # On uniform-link topologies (every legacy grid) the heap stays
        # empty and the hot path is untouched.
        self._uniform_links = topology.uniform_links
        self._delayed: list[tuple[int, int, int, int, Flit]] = []
        self._delay_seq = 0
        # Wire occupancy for serializing links, indexed node*n_ports+port:
        # the cycle the wire frees up (a narrower off-die link holds each
        # flit for `serialization` cycles; followers queue behind).
        self._wire_free = (
            None if self._uniform_links else [0] * (n * n_ports)
        )
        # Incremental worklist: nodes with a latched flit or pending
        # injection.  Maintained by try_inject and the commit phase so a
        # step never scans the whole fabric.
        self._work: set[int] = set()
        # Running count of flits in the network (regs + injection slots):
        # +1 on accepted injection, -1 on ejection.
        self._flit_count = 0
        self._moves: list[tuple[int, int, Flit]] = []
        self._scratch = RoutingOutcome(n_ports=n_ports)
        self.ports: list[NodePorts] = [
            NodePorts(node, InjectionPort(node, self), EjectionPort(node))
            for node in range(n)
        ]
        self.latency = LatencyStat("noc_latency")
        #: Optional per-link/per-switch matrices (telemetry spatial view).
        self._spatial: SpatialCounters | None = None

    # -- node-facing API -----------------------------------------------------

    def ports_of(self, node: int) -> NodePorts:
        return self.ports[node]

    def validate_flit(self, flit: Flit) -> None:
        """Range-check (and optionally wire-encode) a flit at injection."""
        n = self.topology.n_nodes
        if flit.dst < 0:
            # Mask-routed multicast: the bitmask replaces the X-Y address.
            if flit.ptype is not PacketType.MULTICAST:
                raise ProtocolError(f"negative dst on non-multicast {flit!r}")
            mask = flit.dst_mask
            if not (0 < mask < (1 << n)):
                raise ProtocolError(
                    f"multicast mask out of range for {n} nodes: {flit!r}"
                )
            if mask & (1 << flit.src):
                raise ProtocolError(
                    f"multicast mask includes the source node: {flit!r}"
                )
            if not (0 <= flit.src < n):
                raise ProtocolError(f"flit endpoints out of range: {flit!r}")
            if self.strict_encoding:
                self.codec.encode(
                    0, 0, int(flit.ptype), flit.subtype, flit.seq,
                    min(flit.burst, self.codec.max_burst), flit.src, flit.data,
                    mask=mask, crc=max(flit.crc, 0),
                )
            return
        if not (0 <= flit.dst < n and 0 <= flit.src < n):
            raise ProtocolError(f"flit endpoints out of range: {flit!r}")
        if self.strict_encoding:
            x, y = self.topology.coords_of(flit.dst)
            self.codec.encode(
                x, y, int(flit.ptype), flit.subtype, flit.seq,
                min(flit.burst, self.codec.max_burst), flit.src, flit.data,
                crc=max(flit.crc, 0),
            )

    # -- clocked behaviour ------------------------------------------------------

    def step(self, cycle: int) -> None:
        work = self._work
        regs = self.regs
        spatial = self._spatial
        delayed = self._delayed
        if delayed and delayed[0][0] <= cycle:
            # Slow-link arrivals latch at the start of their due cycle —
            # the moment the commit phase of cycle-1 would have latched a
            # single-cycle link.  A held register (stalled receiver)
            # skids the wire one cycle rather than dropping.
            while delayed and delayed[0][0] <= cycle:
                __, seq, node, in_port, flit = heappop(delayed)
                if regs[node][in_port] is None:
                    regs[node][in_port] = flit
                    work.add(node)
                    if spatial is not None:
                        spatial.link_transits[node][in_port] += 1
                else:
                    # due becomes cycle+1 (> cycle), so this terminates.
                    heappush(delayed, (cycle + 1, seq, node, in_port, flit))
        if not work:
            if delayed:
                self.sleep(until=delayed[0][0])
            else:
                self.sleep()
            return
        if (
            self._flit_count == 1
            and self.faults is None
            and spatial is None
            and self._step_lone(cycle)
        ):
            return
        if len(work) == 1:
            work_nodes = list(work)
        else:
            work_nodes = sorted(work)
        work.clear()  # re-populated below by the commit phase / stalls
        moves = self._moves
        del moves[:]
        topo = self.topology
        ports = self.ports
        neighbor_table = topo.neighbor_table
        reverse_table = topo.reverse_port_table
        uniform_links = self._uniform_links
        latency_table = topo.link_latency_table
        ser_table = topo.link_ser_table
        wire_free = self._wire_free
        n_ports = self._n_ports
        port_range = range(n_ports)
        eject_capacity = self.eject_capacity
        scratch = self._scratch
        idle_row = scratch.idle  # n_ports Nones, the width of a register row
        faults = self.faults
        masks_active = False
        if faults is not None:
            faults.advance(cycle)
            masks_active = faults.masks_active
        # Per-step counter accumulation; flushed once into the CounterSet.
        flits_injected = injection_stalls = deflections = eject_overflows = 0
        flits_ejected = flit_hops = 0
        for node in work_nodes:
            if masks_active and faults.stalled(node):
                # A stalled switch holds its input registers latched and
                # neither routes nor accepts anything; neighbours already
                # exclude it from their output masks.
                work.add(node)
                continue
            row = regs[node]
            port = ports[node]
            inject = port.inject.pending

            # A self-addressed flit bypasses the switch entirely.
            if inject is not None and inject.dst == node:
                inject.injected_at = cycle
                port.inject.pending = None
                port.inject.injected += 1
                flits_injected += 1
                flits_ejected += 1
                flit_hops += inject.hops
                self._eject(port, inject, cycle, zero_hop=True)
                inject = None
            elif inject is not None and inject.dst < 0:
                # Stamp mask-routed injections *before* routing: the
                # switch may replicate them right here, and the copies
                # inherit injected_at (age priority + latency baseline).
                # A stalled injection is simply re-stamped next cycle.
                inject.injected_at = cycle

            # The register row is handed to the router as-is (it skips
            # idle links); clear it only after routing has read it.
            if masks_active:
                outcome = route_node(
                    node, row, inject, topo, eject_capacity, scratch,
                    faults.out_mask(node), faults.productive_override,
                )
            else:
                outcome = route_node(
                    node, row, inject, topo, eject_capacity, scratch
                )
            row[:] = idle_row
            for flit in outcome.ejected:
                flits_ejected += 1
                flit_hops += flit.hops
                self._eject(port, flit, cycle)
            if outcome.flit_copies:
                # Multicast replication grew the in-network population.
                self._flit_count += outcome.flit_copies
                self.stats.inc("mcast_copies", outcome.flit_copies)
            if inject is not None:
                if outcome.injected:
                    inject.injected_at = cycle
                    port.inject.pending = None
                    port.inject.injected += 1
                    flits_injected += 1
                else:
                    port.inject.stalled_cycles += 1
                    injection_stalls += 1
                    work.add(node)  # the slot retries next cycle
            deflections += outcome.deflections
            if spatial is not None and outcome.deflections:
                spatial.switch_deflections[node] += outcome.deflections
            eject_overflows += outcome.eject_overflow
            outputs = outcome.outputs
            neighbor_row = neighbor_table[node]
            reverse_row = reverse_table[node]
            for direction in port_range:
                flit = outputs[direction]
                if flit is not None:
                    if faults is not None and not faults.on_link(
                        node, direction, flit, cycle
                    ):
                        # Dropped on the wire: never latched, gone from
                        # the in-network population.
                        self._flit_count -= 1
                        continue
                    neighbor = neighbor_row[direction]
                    assert neighbor >= 0, "routed to a missing link"
                    flit.hops += 1
                    if uniform_links or (
                        latency_table[node][direction] == 1
                        and ser_table[node][direction] == 1
                    ):
                        moves.append((neighbor, reverse_row[direction], flit))
                    else:
                        # Slow or narrow wire: the flit is in flight for
                        # `latency` cycles and occupies the serializing
                        # link for `ser`; followers queue behind.
                        wire = node * n_ports + direction
                        start = wire_free[wire]
                        if start < cycle:
                            start = cycle
                        wire_free[wire] = start + ser_table[node][direction]
                        self._delay_seq += 1
                        heappush(delayed, (
                            start + latency_table[node][direction],
                            self._delay_seq, neighbor,
                            reverse_row[direction], flit,
                        ))
        # Commit phase: latch flits into next cycle's input registers.
        for neighbor, in_dir, flit in moves:
            slot = regs[neighbor][in_dir]
            if slot is not None:
                raise SimulationError(
                    f"link register collision at node {neighbor} dir {in_dir}"
                )
            regs[neighbor][in_dir] = flit
            work.add(neighbor)
        if spatial is not None and moves:
            transits = spatial.link_transits
            for neighbor, in_dir, __ in moves:
                transits[neighbor][in_dir] += 1
        inc = self.stats.inc
        if flits_injected:
            inc("flits_injected", flits_injected)
        if injection_stalls:
            inc("injection_stalls", injection_stalls)
        if deflections:
            inc("deflections", deflections)
        if eject_overflows:
            inc("eject_overflows", eject_overflows)
        if flits_ejected:
            inc("flits_ejected", flits_ejected)
            inc("flit_hops", flit_hops)
        if not work:
            if delayed:
                self.sleep(until=delayed[0][0])
            else:
                self.sleep()

    def _step_lone(self, cycle: int) -> bool:
        """Route the only flit in the network without the switch.

        Called with exactly one flit in flight, no fault injector and no
        spatial counters.  With nothing to contend against, a unicast flit
        in transit or at injection takes its first productive port (always
        attached and free), and one at its destination ejects.  Returns
        False, having changed nothing, for what the general step must
        route: self-addressed and multicast flits, and a hop over a slow
        or serialized link.  Counters go straight into the CounterSet's
        dict (one or two per flit, on most cycles of a shared-memory run).
        """
        work = self._work
        regs = self.regs
        for node in work:
            break
        port = self.ports[node]
        inject = port.inject.pending
        if inject is None:
            row = regs[node]
            in_port = 0
            flit = row[0]
            while flit is None:
                in_port += 1
                flit = row[in_port]
            dst = flit.dst
            if dst == node and self.eject_capacity:
                row[in_port] = None
                work.clear()
                self._eject(port, flit, cycle)
                c = self.stats._counters
                c["flits_ejected"] = c.get("flits_ejected", 0) + 1
                c["flit_hops"] = c.get("flit_hops", 0) + flit.hops
                self.sleep()
                return True
        else:
            flit = inject
            dst = flit.dst
        if dst < 0 or dst == node:
            return False
        topo = self.topology
        dirs = topo.productive_table[node * topo.n_nodes + dst]
        if not dirs:
            return False
        direction = dirs[0]
        if not self._uniform_links and (
            topo.link_latency_table[node][direction] != 1
            or topo.link_ser_table[node][direction] != 1
        ):
            return False
        flit.hops += 1
        if inject is None:
            row[in_port] = None
        else:
            inject.injected_at = cycle
            port.inject.pending = None
            port.inject.injected += 1
            c = self.stats._counters
            c["flits_injected"] = c.get("flits_injected", 0) + 1
        neighbor = topo.neighbor_table[node][direction]
        regs[neighbor][topo.reverse_port_table[node][direction]] = flit
        work.clear()
        work.add(neighbor)
        return True

    def _eject(
        self, port: NodePorts, flit: Flit, cycle: int, zero_hop: bool = False
    ) -> None:
        if self.faults is not None and not self.faults.check_eject(
            flit, port.node, cycle
        ):
            # Checksum mismatch: the ejection port discards the flit, so
            # corruption degenerates to loss and the NACK path repairs it.
            self._flit_count -= 1
            return
        latency = 0 if zero_hop else cycle - flit.injected_at + 1
        self.latency.record(latency)
        self._flit_count -= 1
        if self._spatial is not None:
            self._spatial.node_ejects[port.node] += 1
        if self.tracer.enabled:
            self.tracer.emit(
                cycle, "noc", "eject",
                node=port.node, uid=flit.uid, ptype=flit.ptype.name,
                latency=latency,
            )
        port.eject.deliver(flit)

    # -- telemetry spatial view ----------------------------------------------

    def enable_spatial(self) -> SpatialCounters:
        """Start keeping per-link/per-switch matrices (telemetry only)."""
        if self._spatial is None:
            self._spatial = SpatialCounters(
                self.topology.n_nodes, self.topology.max_ports
            )
        return self._spatial

    def spatial_values(self) -> dict[str, int]:
        """Flat hierarchical counters for the metric registry.

        Keys name physical elements by topology label —
        ``link.(1,1)->(1,2).transits`` and ``switch.(1,1).deflections``
        on a grid, ``link.(io)->(c1:0,0).transits`` on a chiplet system.
        Only elements that have moved appear, keeping sample rows sparse.
        """
        spatial = self._spatial
        if spatial is None:
            return {}
        topo = self.topology
        label_of = topo.label_of
        neighbor_table = topo.neighbor_table
        values: dict[str, int] = {}
        for receiver in range(topo.n_nodes):
            here = label_of(receiver)
            transits = spatial.link_transits[receiver]
            for in_dir in range(topo.max_ports):
                src = neighbor_table[receiver][in_dir]
                if transits[in_dir] and src >= 0:
                    values[
                        f"link.({label_of(src)})->({here}).transits"
                    ] = transits[in_dir]
            if spatial.switch_deflections[receiver]:
                values[f"switch.({here}).deflections"] = (
                    spatial.switch_deflections[receiver]
                )
            if spatial.node_ejects[receiver]:
                values[f"switch.({here}).ejects"] = (
                    spatial.node_ejects[receiver]
                )
            stalled = self.ports[receiver].inject.stalled_cycles
            if stalled:
                values[f"switch.({here}).inject_stalls"] = stalled
        return values

    def spatial_dict(self) -> dict | None:
        """Matrix-shaped JSON dump of the spatial view (None when off).

        Matrices are row-major ``[y][x]``; links are listed with explicit
        src/dst coordinates so torus wrap links need no special casing.
        """
        spatial = self._spatial
        if spatial is None:
            return None
        topo = self.topology
        coords_of = topo.coords_of
        neighbor_table = topo.neighbor_table
        width, height = topo.width, topo.height

        def matrix(per_node: list[int]) -> list[list[int]]:
            rows = [[0] * width for __ in range(height)]
            for node, value in enumerate(per_node):
                x, y = coords_of(node)
                rows[y][x] = value
            return rows

        panels = topo.spatial_panels()
        links = []
        for receiver in range(topo.n_nodes):
            for in_dir in range(topo.max_ports):
                count = spatial.link_transits[receiver][in_dir]
                src = neighbor_table[receiver][in_dir]
                if count and src >= 0:
                    link = {
                        "src": list(coords_of(src)),
                        "dst": list(coords_of(receiver)),
                        "transits": count,
                    }
                    if panels is not None:
                        link["src_node"] = src
                        link["dst_node"] = receiver
                    links.append(link)
        result = {
            "width": width,
            "height": height,
            "links": links,
            "deflections": matrix(spatial.switch_deflections),
            "ejects": matrix(spatial.node_ejects),
            "inject_stalls": matrix(
                [port.inject.stalled_cycles for port in self.ports]
            ),
            "injected": matrix(
                [port.inject.injected for port in self.ports]
            ),
        }
        if panels is not None:
            # Hierarchical topologies render as per-chiplet panels; the
            # flat matrices above remain for schema compatibility (one
            # row of n_nodes values on a chiplet system).
            result["panels"] = panels
            result["labels"] = [
                topo.label_of(node) for node in range(topo.n_nodes)
            ]
        return result

    # -- introspection -------------------------------------------------------------

    @property
    def flits_in_network(self) -> int:
        return self._flit_count

    def describe_state(self) -> str:
        return (
            f"{'active' if self.active else 'idle'}, "
            f"{self.flits_in_network} flits in network"
        )
