"""The pif2NoC bridge FSM.

Translates one :class:`~repro.bridge.pif.MemTransaction` at a time into the
MPMMU wire protocol of Fig. 4:

* reads  — request flit out, data flit(s) straight back (Req/Data);
* writes — request flit out, wait for the grant ACK, stream the data
  flit(s), wait for the final ACK (Req/Ack/Data/Ack);
* lock/unlock — request flit out, ACK (or NACK for a busy lock) back.

Block-read replies may arrive out of order; the 4-deep reorder buffer
re-sequences them.  The bridge's NoC address for a memory address comes
from a small configuration LUT; the reference system has a single MPMMU,
so the LUT has one hardwired entry — exactly the simplification the paper
describes.
"""

from __future__ import annotations

import enum

from repro.bridge.pif import MemTransaction
from repro.bridge.reorder import ReorderBuffer
from repro.errors import ProtocolError
from repro.kernel.stats import CounterSet, LatencyStat
from repro.noc.flit import Flit
from repro.noc.packet import PacketType, SubType


class AddressLut:
    """Maps memory addresses to MPMMU NoC nodes.

    Microprocessor-configurable in general (``add_range``); a single
    default entry reproduces the paper's one-memory-node system.
    """

    def __init__(self, default_node: int) -> None:
        self.default_node = default_node
        self._ranges: list[tuple[int, int, int]] = []

    def add_range(self, base: int, size: int, node: int) -> None:
        self._ranges.append((base, base + size, node))

    def lookup(self, addr: int) -> int:
        for base, end, node in self._ranges:
            if base <= addr < end:
                return node
        return self.default_node


#: Per-transaction counter keys, precomputed so start() builds no strings.
_TXN_KEY = {kind: f"txn_{kind.name.lower()}" for kind in PacketType}

#: Wire sub-type values as plain ints, compared on every reply flit.
_ADDR = int(SubType.ADDR)
_DATA = int(SubType.DATA)
_ACK = int(SubType.ACK)
_NACK = int(SubType.NACK)


class _BridgeState(enum.Enum):
    IDLE = "idle"
    SEND_REQ = "send_req"
    WAIT_DATA = "wait_data"      # read replies expected
    WAIT_GRANT = "wait_grant"    # write grant / lock / unlock ack expected
    SEND_DATA = "send_data"      # streaming write data flits
    WAIT_FINAL = "wait_final"    # final write ack expected


class Pif2NocBridge:
    """One shared-memory transaction in flight between a PE and the MPMMU."""

    def __init__(
        self,
        node_id: int,
        lut: AddressLut,
        reorder_depth: int = 4,
        name: str = "pif2noc",
    ) -> None:
        self.node_id = node_id
        self.lut = lut
        self.reorder = ReorderBuffer(reorder_depth)
        self.name = name
        self.stats = CounterSet(name)
        self.latency = LatencyStat(f"{name}.latency")
        self._state = _BridgeState.IDLE
        self._txn: MemTransaction | None = None
        self._outgoing: list[Flit] = []

    # -- control ------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return self._state is _BridgeState.IDLE

    def start(self, txn: MemTransaction, cycle: int) -> None:
        if not self.idle:
            raise ProtocolError(f"{self.name}: start while busy")
        self._txn = txn
        txn.issued_at = cycle
        mpmmu = self.lut.lookup(txn.addr)
        self._outgoing = [
            Flit(
                dst=mpmmu,
                src=self.node_id,
                ptype=txn.kind,
                subtype=_ADDR,
                seq=0,
                burst=1,
                data=txn.addr,
            )
        ]
        self._state = _BridgeState.SEND_REQ
        self.stats.inc(_TXN_KEY[txn.kind])

    # -- TX side (node offers our flits to the arbiter) -----------------------------

    def poll_output(self) -> Flit | None:
        return self._outgoing[0] if self._outgoing else None

    def output_sent(self) -> None:
        if not self._outgoing:
            raise ProtocolError(f"{self.name}: output_sent with nothing pending")
        self._outgoing.pop(0)
        if self._outgoing:
            return
        txn = self._txn
        assert txn is not None
        if self._state is _BridgeState.SEND_REQ:
            if txn.expected_read_words:
                self.reorder.begin(txn.expected_read_words)
                self._state = _BridgeState.WAIT_DATA
            else:
                self._state = _BridgeState.WAIT_GRANT
        elif self._state is _BridgeState.SEND_DATA:
            self._state = _BridgeState.WAIT_FINAL

    # -- RX side -----------------------------------------------------------------------

    def on_reply(self, flit: Flit, cycle: int) -> MemTransaction | None:
        """Process a reply flit; returns the transaction when it completes."""
        txn = self._txn
        if txn is None:
            raise ProtocolError(f"{self.name}: reply {flit!r} with no transaction")
        if flit.ptype != txn.kind:
            raise ProtocolError(
                f"{self.name}: reply type {flit.ptype.name} does not match "
                f"in-flight {txn.kind.name}"
            )
        state = self._state
        if state is _BridgeState.WAIT_DATA:
            if flit.subtype != _DATA:
                raise ProtocolError(f"{self.name}: expected DATA, got {flit!r}")
            if self.reorder.insert(flit.seq, flit.data):
                txn.read_words = self.reorder.take()
                return self._complete(cycle)
            return None
        if state is _BridgeState.WAIT_GRANT:
            if txn.kind is PacketType.LOCK:
                if flit.subtype == _ACK:
                    txn.granted = True
                elif flit.subtype == _NACK:
                    txn.granted = False
                    self.stats.inc("lock_nacks")
                else:
                    raise ProtocolError(f"{self.name}: bad lock reply {flit!r}")
                return self._complete(cycle)
            if txn.kind is PacketType.UNLOCK:
                if flit.subtype != _ACK:
                    raise ProtocolError(f"{self.name}: bad unlock reply {flit!r}")
                return self._complete(cycle)
            # Write grant: start streaming data flits.
            if flit.subtype != _ACK:
                raise ProtocolError(f"{self.name}: expected write grant, got {flit!r}")
            mpmmu = self.lut.lookup(txn.addr)
            self._outgoing = [
                Flit(
                    dst=mpmmu,
                    src=self.node_id,
                    ptype=txn.kind,
                    subtype=_DATA,
                    seq=index,
                    burst=len(txn.write_words),
                    data=word,
                )
                for index, word in enumerate(txn.write_words)
            ]
            self._state = _BridgeState.SEND_DATA
            return None
        if state is _BridgeState.WAIT_FINAL:
            if flit.subtype != _ACK:
                raise ProtocolError(f"{self.name}: expected final ACK, got {flit!r}")
            return self._complete(cycle)
        raise ProtocolError(
            f"{self.name}: reply {flit!r} in state {state.value}"
        )

    def _complete(self, cycle: int) -> MemTransaction:
        txn = self._txn
        assert txn is not None
        txn.completed_at = cycle
        self.latency.record(txn.latency)
        self._txn = None
        self._state = _BridgeState.IDLE
        self._outgoing = []
        return txn

    # -- diagnostics ----------------------------------------------------------------------

    def describe(self) -> str:
        txn = f"{self._txn.kind.name}@{self._txn.addr:#x}" if self._txn else "none"
        return f"{self._state.value}({txn})"
