"""TIE message-passing interface.

Paper Section II-B: each Xtensa gains TIE ports that behave as FIFO
queues directly attached to the register file.  On send, hardware stamps
every flit with a sequence number (a counter) and resolves the destination
through a small LUT.  On receive, the sequence number is used as an offset
into the processor's local data memory so no sorting buffer is needed for
out-of-order flits, and a double buffer gives single-cycle reads.

The model here is architecturally equivalent:

* **TX** — one pending message at a time, emitted at one flit per cycle
  through the arbiter; per-destination slot counters generate the 4-bit
  wrapping sequence numbers.
* **RX** — a :class:`ReceiveStream` per source implements the seq-offset
  scatter with a two-window (double-buffer) tolerance for out-of-order
  arrival; *request* flits (the SUB-TYPE the paper reserves to distinguish
  requests from generic data) land in a separate control queue, keeping
  synchronization tokens out of the data path.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ProtocolError
from repro.kernel.fifo import Fifo
from repro.kernel.stats import CounterSet
from repro.noc.flit import Flit
from repro.noc.packet import PacketType, SubType

#: Sequence numbers are 4 bits on the wire.
SEQ_WINDOW = 16
#: Double buffering tolerates reordering across two windows.
MAX_SPAN = 2 * SEQ_WINDOW

#: Credit-based flow control over the request segment.  A sender may have
#: at most CREDIT_LIMIT unacknowledged stream slots in flight per
#: destination; the receiving TIE returns one credit token per
#: CREDIT_WINDOW contiguously completed slots.  This bounds the reorder
#: span seen by the receiver strictly below SEQ_WINDOW, so two flits
#: carrying the same 4-bit sequence number can never coexist in the
#: network — the condition the seq-offset scatter needs to be unambiguous.
#: (This is the flow-control role the paper assigns to request packets.)
CREDIT_WINDOW = 8
CREDIT_LIMIT = 16
#: Marker word carried by credit tokens; disjoint from eMPI token encoding.
CREDIT_WORD = 0x7F00_0000
#: Credit marker for the *multicast* stream (see below); every group
#: member returns one per CREDIT_WINDOW contiguous multicast slots, and
#: the DMA engine gates emission on the slowest member — the ack
#: aggregation a hardware collective engine performs.
MCAST_CREDIT_WORD = 0x7F01_0000
#: Multicast group (re-)registration handshake, riding the same reverse
#: request path as the credits.  A SYNC token carries the *phase* of the
#: sender's multicast stream slot (slot mod SEQ_WINDOW — the receiver's
#: absolute numbering is local bookkeeping, and CREDIT_WINDOW divides
#: SEQ_WINDOW, so phase alignment is all the seq-offset scatter and the
#: credit windows need); a *new* group member fast-forwards its receive
#: stream to that phase and answers with a SYNC_ACK, and the sending
#: engine holds the first post-re-registration descriptor until every
#: new member acked.
MCAST_SYNC_WORD = 0x7F02_0000
MCAST_SYNC_ACK_WORD = 0x7F03_0000
#: SYNC carries the slot phase (mod SEQ_WINDOW) in its low bits.
MCAST_SYNC_SLOT_MASK = SEQ_WINDOW - 1

#: Reliable-delivery control tokens (fault layer only; same 0x7Fxx_0000
#: marker family, still disjoint from eMPI token encoding).  In reliable
#: mode every credit/sync/NACK token carries an *absolute* stream slot
#: (mod 2^16) in its low 16 bits instead of being a bare increment — a
#: lost or duplicated token then merely delays the window instead of
#: corrupting it, and an idempotent probe can always resynchronize.
#: NACKs name the receiver's lowest missing slot; probes ask the peer to
#: re-send its current credit value after a suspicious stall.
NACK_WORD = 0x7F04_0000
MCAST_NACK_WORD = 0x7F05_0000
CREDIT_PROBE_WORD = 0x7F06_0000
MCAST_CREDIT_PROBE_WORD = 0x7F07_0000
#: High-half marker match for the whole token family.
MARKER_MASK = 0xFFFF_0000
#: Low-half payload of reliable-mode tokens (absolute slot mod 2^16).
SLOT_MASK = 0xFFFF


class ReceiveStream:
    """In-order word stream reassembled from out-of-order flits.

    Slot accounting is continuous across messages: flit *k* of the stream
    carries sequence number ``k % 16``, and arrivals are scattered into
    their slot on receipt (the hardware writes ``base + seq`` in local
    memory).  ``lowest_missing`` is the front of the current window; a
    sequence number that would land more than two windows ahead means the
    hardware double buffer would have been overrun, which is a protocol
    error rather than something to hide.
    """

    __slots__ = ("slots", "lowest_missing", "consumed", "max_span",
                 "credited_upto", "wide", "wanted")

    def __init__(self) -> None:
        self.slots: dict[int, int] = {}
        self.lowest_missing = 0
        self.consumed = 0
        self.max_span = 0
        #: Slots for which credit tokens have already been issued.
        self.credited_upto = 0
        #: Reliable mode: flits carry 16-bit sequence numbers, so arrivals
        #: place exactly and duplicates (retransmit + late original) are
        #: detected and dropped instead of aliasing into a future frame.
        self.wide = False
        #: Highest slot a consumer has asked :meth:`available` for and not
        #: yet received — the reliability agent's starvation signal for
        #: tail loss (nothing buffered, but someone is waiting).
        self.wanted = 0

    def insert(self, seq: int, word: int) -> bool:
        """Scatter one arrival; False = duplicate, silently discarded.

        Duplicates can only occur in reliable mode (a retransmit racing
        its delayed original); the fault-free 4-bit protocol never
        duplicates, so the narrow path keeps treating a same-slot arrival
        as the double-buffer overrun it would be in hardware.
        """
        if self.wide:
            delta = (seq - self.lowest_missing) & SLOT_MASK
            if delta >= 0x8000:
                return False  # behind the front: a stale duplicate
            slot = self.lowest_missing + delta
            if slot in self.slots:
                return False  # duplicate of a buffered arrival
            if delta >= MAX_SPAN:
                raise ProtocolError(
                    f"reorder span exceeded double buffer: seq={seq}, "
                    f"oldest missing slot {self.lowest_missing}"
                )
        else:
            if not (0 <= seq < SEQ_WINDOW):
                raise ProtocolError(
                    f"sequence number {seq} exceeds 4-bit field"
                )
            # The two hardware buffers are frame-aligned: frame k covers
            # slots [16k, 16k+16).  A flit lands in the frame of the
            # oldest missing slot unless that slot already arrived, in
            # which case it belongs to the next frame (the second buffer).
            frame_base = (self.lowest_missing // SEQ_WINDOW) * SEQ_WINDOW
            slot = frame_base + seq
            if slot < self.lowest_missing or slot in self.slots:
                slot += SEQ_WINDOW
            if slot in self.slots:
                raise ProtocolError(
                    f"reorder span exceeded double buffer: seq={seq}, "
                    f"oldest missing slot {self.lowest_missing}"
                )
        self.slots[slot] = word
        span = slot - self.lowest_missing
        if span > self.max_span:
            self.max_span = span
        while self.lowest_missing in self.slots:
            self.lowest_missing += 1
        return True

    def available(self, n_words: int) -> bool:
        """True when the next ``n_words`` of the stream are contiguous."""
        need = self.consumed + n_words
        if need <= self.lowest_missing:
            return True
        if need > self.wanted:
            self.wanted = need
        return False

    def take(self, n_words: int) -> list[int]:
        if not self.available(n_words):
            raise ProtocolError(f"take({n_words}) on incomplete stream")
        start = self.consumed
        self.consumed = start + n_words
        return [self.slots.pop(start + i) for i in range(n_words)]

    @property
    def pending_words(self) -> int:
        return self.lowest_missing - self.consumed

    def realign(self, phase: int) -> None:
        """Fast-forward an idle stream to slot phase ``phase`` (group sync).

        Used when this stream's sender re-registers its multicast group
        with this node as a new member: the shared sequence space stands
        at some slot with ``slot % SEQ_WINDOW == phase``, so the empty
        stream jumps forward to the nearest slot of that phase.  Only the
        phase matters — this stream's absolute numbering is local
        bookkeeping, and credit windows divide the sequence window, so
        windowed crediting stays aligned with the sender's counters.  A
        stream holding unconsumed or out-of-order words cannot be moved —
        that data would be lost, which is a protocol violation, not a
        detail to hide.
        """
        span = SLOT_MASK + 1 if self.wide else SEQ_WINDOW
        if not (0 <= phase < span):
            raise ProtocolError(f"sync phase {phase} exceeds the seq window")
        if self.slots or self.consumed != self.lowest_missing:
            raise ProtocolError(
                f"multicast stream re-synced with {self.pending_words} "
                f"unconsumed word(s) and {len(self.slots)} buffered flit(s)"
            )
        base = self.lowest_missing
        base += (phase - base) % span
        self.lowest_missing = base
        self.consumed = base
        self.credited_upto = base


class _PendingSend:
    """TX state for the message currently streaming out."""

    __slots__ = ("dst_node", "words", "index", "flits", "base_slot")

    def __init__(self, dst_node: int, words: list[int], flits: list[Flit],
                 base_slot: int):
        self.dst_node = dst_node
        self.words = words
        self.index = 0
        self.flits = flits
        self.base_slot = base_slot

    @property
    def done(self) -> bool:
        return self.index >= len(self.flits)

    def current(self) -> Flit:
        return self.flits[self.index]

    def current_slot(self) -> int:
        return self.base_slot + self.index


class TieInterface:
    """Send/receive state of one PE's TIE ports."""

    def __init__(
        self,
        node_id: int,
        request_queue_depth: int = 64,
        credit_plan: dict[int, int] | None = None,
    ) -> None:
        self.node_id = node_id
        #: Topology-aware per-peer initial credit limits (slots in flight
        #: before the first credit token).  The system builder fills this
        #: from the topology's path latencies so high-RTT peers (across
        #: inter-chiplet links) get windows covering their round trip;
        #: peers absent from the plan use the hardware default
        #: CREDIT_LIMIT.  The 4-bit wire protocol caps any entry at
        #: CREDIT_LIMIT — only the wide (reliable) sequence format can
        #: track a larger span — so the builder clamps accordingly.
        self.credit_plan: dict[int, int] = credit_plan or {}
        self.streams: dict[int, ReceiveStream] = {}
        #: Separate per-source streams for multicast traffic: a multicast
        #: group shares one sequence space at the sender, which cannot be
        #: the unicast per-destination space (different receivers would
        #: disagree on slot numbering), so arrivals are scattered into
        #: their own double-buffered stream.
        self.mcast_streams: dict[int, ReceiveStream] = {}
        self.requests: Fifo[tuple[int, int]] = Fifo(
            request_queue_depth, name=f"tie[{node_id}].req"
        )
        self._send_slots: dict[int, int] = {}
        #: Per-destination highest stream slot the peer has credited.
        self._credit_limit: dict[int, int] = {}
        #: Multicast slots credited back, per group member (sender side);
        #: read by the DMA engine, which gates on the minimum.
        self.mcast_credited: dict[int, int] = {}
        #: Members that acknowledged a group-sync token (sender side);
        #: the DMA engine holds re-registered descriptors on this set.
        self.mcast_sync_acks: set[int] = set()
        #: Credit tokens owed to peers: (destination node, marker word).
        self.pending_credits: Fifo[tuple[int, int]] = Fifo(
            None, name=f"tie[{node_id}].cr"
        )
        self.tx: _PendingSend | None = None
        #: Reliable-delivery mode (fault layer active): 16-bit wire
        #: sequence numbers, absolute credit tokens, and a bounded
        #: retransmit buffer serving NACKs.  Default off — the fault-free
        #: protocol below is bit-identical to the pre-fault-layer model.
        self.reliable = False
        #: :class:`repro.faults.FaultInjector` when reliable (credit-drop
        #: hooks + fault accounting); None otherwise.
        self.faults = None
        #: Backpressure bound on emitted-but-unretired slots per peer
        #: (the modelled retransmit SRAM depth; <= CREDIT_LIMIT).
        self.retx_slots = CREDIT_LIMIT
        #: Per-destination absolute credit floor confirmed by the peer
        #: (reliable mode replacement for the incremental _credit_limit).
        self._peer_credited: dict[int, int] = {}
        #: Per-destination retransmit buffer: slot -> word, filled as
        #: flits are emitted and pruned as the peer's credits retire them.
        self._retx: dict[int, dict[int, int]] = {}
        #: NACK-requested retransmissions awaiting a TX slot:
        #: (dst, slot, word), drained by the node at one flit per cycle.
        self.pending_retx: deque[tuple[int, int, int]] = deque()
        self._retx_queued: set[tuple[int, int]] = set()
        #: Multicast NACKs for the DMA engine: (member, slot mod 2^16).
        self.mcast_nacks: deque[tuple[int, int]] = deque()
        self.stats = CounterSet(f"tie[{node_id}]")
        #: Set when a flit arrives; the node uses it to re-check waiters.
        self.rx_event = False
        # Per-flit hot counters, batched as plain ints and folded into the
        # CounterSet by flush_stats() whenever the owning node sleeps —
        # the same pattern as the core/MPMMU counters.
        self._n_data_flits_sent = 0
        self._n_data_flits_received = 0
        self._n_credit_stall_cycles = 0
        self._n_mcast_flits_received = 0

    def initial_credit(self, peer: int) -> int:
        """Initial in-flight slot budget toward ``peer`` (credit plan)."""
        return self.credit_plan.get(peer, CREDIT_LIMIT)

    # -- RX ------------------------------------------------------------------

    def accept(self, flit: Flit) -> None:
        """Sort an incoming MESSAGE flit into data stream or request queue."""
        ptype = flit.ptype
        if ptype == PacketType.MULTICAST:
            # First: with a DMA engine fitted, most message traffic is
            # multicast stream data.
            self._accept_multicast(flit)
            return
        if ptype != PacketType.MESSAGE:
            raise ProtocolError(f"TIE got non-message flit {flit!r}")
        self.rx_event = True
        if flit.subtype == SubType.MSG_REQUEST:
            # Token family dispatch on the marker half-word.  In the
            # fault-free protocol every token is exactly its marker (low
            # bits zero); reliable mode carries an absolute slot in the
            # low bits, which the masked match makes transparent here.
            marker = flit.data & MARKER_MASK
            if marker == CREDIT_WORD:
                # The peer completed a window of our stream to it.
                if self.faults is not None and self.faults.eat_credit(
                    self.node_id, flit.src
                ):
                    return
                if self.reliable:
                    self._apply_credit(flit.src, flit.data & SLOT_MASK)
                else:
                    limit = self._credit_limit.get(
                        flit.src, self.initial_credit(flit.src)
                    )
                    self._credit_limit[flit.src] = limit + CREDIT_WINDOW
                self.stats.inc("credits_received")
                return
            if marker == MCAST_CREDIT_WORD:
                # A multicast group member completed a window.
                if self.faults is not None and self.faults.eat_mcast_credit(
                    self.node_id, flit.src
                ):
                    return
                if self.reliable:
                    self._apply_mcast_credit(flit.src, flit.data & SLOT_MASK)
                else:
                    credited = self.mcast_credited.get(flit.src, 0)
                    self.mcast_credited[flit.src] = credited + CREDIT_WINDOW
                self.stats.inc("mcast_credits_received")
                return
            if marker == MCAST_SYNC_WORD:
                # The peer re-registered its multicast group with this
                # node as a new member: align our stream to the phase of
                # its shared sequence space and ack on the reverse path.
                phase = flit.data & self.sync_slot_mask
                self.mcast_stream_from(flit.src).realign(phase)
                self.pending_credits.push((flit.src, MCAST_SYNC_ACK_WORD))
                self.stats.inc("mcast_syncs_received")
                return
            if flit.data == MCAST_SYNC_ACK_WORD:
                self.mcast_sync_acks.add(flit.src)
                self.stats.inc("mcast_sync_acks_received")
                return
            if self.reliable:
                if marker == NACK_WORD:
                    self._handle_nack(flit.src, flit.data & SLOT_MASK)
                    return
                if marker == MCAST_NACK_WORD:
                    self.mcast_nacks.append((flit.src, flit.data & SLOT_MASK))
                    self.stats.inc("mcast_nacks_received")
                    return
                if marker == CREDIT_PROBE_WORD:
                    # Idempotent resync: re-issue our current credit value
                    # for the probing sender's stream (a lost credit token
                    # deadlocks its window otherwise).
                    stream = self.streams.get(flit.src)
                    upto = stream.credited_upto if stream is not None else 0
                    self.pending_credits.push(
                        (flit.src, CREDIT_WORD | (upto & SLOT_MASK))
                    )
                    self.stats.inc("credit_probes_received")
                    return
                if marker == MCAST_CREDIT_PROBE_WORD:
                    stream = self.mcast_streams.get(flit.src)
                    upto = stream.credited_upto if stream is not None else 0
                    self.pending_credits.push(
                        (flit.src, MCAST_CREDIT_WORD | (upto & SLOT_MASK))
                    )
                    self.stats.inc("mcast_credit_probes_received")
                    return
            self.requests.push((flit.src, flit.data))
            self.stats.inc("requests_received")
            return
        stream = self.streams.get(flit.src)
        if stream is None:
            stream = ReceiveStream()
            stream.wide = self.reliable
            self.streams[flit.src] = stream
        if not stream.insert(flit.seq, flit.data):
            self.stats.inc("duplicate_flits_dropped")
            return
        self._n_data_flits_received += 1
        # Flow control: one credit per CREDIT_WINDOW contiguous slots.
        while stream.lowest_missing >= stream.credited_upto + CREDIT_WINDOW:
            stream.credited_upto += CREDIT_WINDOW
            word = CREDIT_WORD
            if self.reliable:
                word |= stream.credited_upto & SLOT_MASK
            self.pending_credits.push((flit.src, word))
            self.stats.inc("credits_sent")

    def _accept_multicast(self, flit: Flit) -> None:
        """Scatter a multicast data flit into its per-source stream.

        Same seq-offset scatter and double buffer as the unicast path,
        over the dedicated multicast sequence space; the same windowed
        credit protocol flows back so the sending DMA engine can bound
        the reorder span group-wide.
        """
        self.rx_event = True
        stream = self.mcast_streams.get(flit.src)
        if stream is None:
            stream = ReceiveStream()
            stream.wide = self.reliable
            self.mcast_streams[flit.src] = stream
        if not stream.insert(flit.seq, flit.data):
            self.stats.inc("duplicate_flits_dropped")
            return
        self._n_mcast_flits_received += 1
        while stream.lowest_missing >= stream.credited_upto + CREDIT_WINDOW:
            stream.credited_upto += CREDIT_WINDOW
            word = MCAST_CREDIT_WORD
            if self.reliable:
                word |= stream.credited_upto & SLOT_MASK
            self.pending_credits.push((flit.src, word))
            self.stats.inc("mcast_credits_sent")

    def stream_from(self, src_node: int) -> ReceiveStream:
        stream = self.streams.get(src_node)
        if stream is None:
            stream = ReceiveStream()
            stream.wide = self.reliable
            self.streams[src_node] = stream
        return stream

    def mcast_stream_from(self, src_node: int) -> ReceiveStream:
        stream = self.mcast_streams.get(src_node)
        if stream is None:
            stream = ReceiveStream()
            stream.wide = self.reliable
            self.mcast_streams[src_node] = stream
        return stream

    @property
    def sync_slot_mask(self) -> int:
        """Slot bits carried by multicast SYNC tokens (wide when reliable)."""
        return SLOT_MASK if self.reliable else MCAST_SYNC_SLOT_MASK

    # -- reliable-delivery bookkeeping (fault layer only) --------------------

    def _apply_credit(self, src: int, value: int) -> None:
        """Fold an absolute 16-bit credit value into the per-peer floor.

        Forward-only (signed mod-2^16 delta): a reordered or retransmitted
        stale token is a no-op, so credits are idempotent under faults.
        """
        prev = self._peer_credited.get(src, 0)
        delta = (value - prev) & SLOT_MASK
        if not delta or delta >= 0x8000:
            return
        floor = prev + delta
        self._peer_credited[src] = floor
        retx = self._retx.get(src)
        if retx:
            for slot in [s for s in retx if s < floor]:
                del retx[slot]

    def _apply_mcast_credit(self, src: int, value: int) -> None:
        prev = self.mcast_credited.get(src, 0)
        delta = (value - prev) & SLOT_MASK
        if not delta or delta >= 0x8000:
            return
        self.mcast_credited[src] = prev + delta

    def _handle_nack(self, src: int, slot16: int) -> None:
        """Queue a retransmission for the peer's lowest missing slot."""
        self.stats.inc("nacks_received")
        floor = self._peer_credited.get(src, 0)
        delta = (slot16 - floor) & SLOT_MASK
        if delta >= 0x8000:
            # Behind the credited floor: the slot already retired from
            # the retransmit buffer (a stale NACK that crossed the credit
            # repairing it in flight) — nothing to do.
            self.stats.inc("nacks_retired")
            return
        slot = floor + delta
        retx = self._retx.get(src)
        if (
            slot >= self._send_slots.get(src, 0)
            or retx is None
            or slot not in retx
        ):
            # Unsent or unknown slot — e.g. the NACK token itself was
            # corrupted.  Harmless: the receiver keeps NACKing with
            # backoff until a well-formed one lands.
            self.stats.inc("nacks_ignored")
            return
        if (src, slot) not in self._retx_queued:
            self._retx_queued.add((src, slot))
            self.pending_retx.append((src, slot, retx[slot]))

    def retx_flit(self) -> Flit | None:
        """Next owed retransmission (drained by the node, 1/cycle)."""
        if not self.pending_retx:
            return None
        dst, slot, word = self.pending_retx[0]
        return Flit(
            dst=dst,
            src=self.node_id,
            ptype=PacketType.MESSAGE,
            subtype=int(SubType.MSG_RETX),
            seq=slot & SLOT_MASK,
            burst=1,
            data=word,
        )

    def retx_sent(self) -> None:
        dst, slot, _word = self.pending_retx.popleft()
        self._retx_queued.discard((dst, slot))
        self.stats.inc("retx_sent")

    # -- TX ----------------------------------------------------------------------

    @property
    def tx_busy(self) -> bool:
        return self.tx is not None

    def begin_send(self, dst_node: int, words: list[int]) -> None:
        """Start streaming a data message (one flit per cycle thereafter)."""
        if self.tx is not None:
            raise ProtocolError("TIE send started while a send is in flight")
        if not words:
            raise ProtocolError("empty message")
        base_slot = self._send_slots.get(dst_node, 0)
        flits = []
        total = len(words)
        seq_mod = SLOT_MASK + 1 if self.reliable else SEQ_WINDOW
        for offset, word in enumerate(words):
            slot = base_slot + offset
            # Logic packets group up to 4 flits; BURST tells the receiver
            # how many flits this flit's packet contains (2-bit field).
            burst = min(4, total - (offset // 4) * 4)
            flits.append(
                Flit(
                    dst=dst_node,
                    src=self.node_id,
                    ptype=PacketType.MESSAGE,
                    subtype=int(SubType.MSG_DATA),
                    seq=slot % seq_mod,
                    burst=burst,
                    data=word,
                )
            )
        self._send_slots[dst_node] = base_slot + total
        self.tx = _PendingSend(dst_node, words, flits, base_slot)
        self.stats.inc("messages_sent")

    def make_request_flit(self, dst_node: int, word: int) -> Flit:
        """Build a single-flit control token for the request segment."""
        self.stats.inc("requests_sent")
        return Flit(
            dst=dst_node,
            src=self.node_id,
            ptype=PacketType.MESSAGE,
            subtype=int(SubType.MSG_REQUEST),
            seq=0,
            burst=1,
            data=word,
        )

    def tx_current(self) -> Flit | None:
        if self.tx is None or self.tx.done:
            return None
        # Credit gate: never exceed the peer-confirmed window.
        if self.reliable:
            floor = self._peer_credited.get(self.tx.dst_node, 0)
            # Same window as the fault-free gate (floor + initial credit
            # == the incremental limit in a lossless run), narrowed by
            # the retransmit SRAM depth: every emitted-but-unretired slot
            # must stay replayable.
            limit = floor + min(
                self.initial_credit(self.tx.dst_node), self.retx_slots
            )
        else:
            limit = self._credit_limit.get(
                self.tx.dst_node, self.initial_credit(self.tx.dst_node)
            )
        if self.tx.current_slot() >= limit:
            self._n_credit_stall_cycles += 1
            return None
        return self.tx.current()

    def credit_flit(self) -> Flit | None:
        """Next owed credit token, if any (drained by the node, 1/cycle)."""
        if self.pending_credits.empty:
            return None
        dst, word = self.pending_credits.peek()
        return Flit(
            dst=dst,
            src=self.node_id,
            ptype=PacketType.MESSAGE,
            subtype=int(SubType.MSG_REQUEST),
            seq=0,
            burst=1,
            data=word,
        )

    def credit_sent(self) -> None:
        self.pending_credits.pop()

    def tx_advance(self) -> bool:
        """Mark the current flit accepted; True when the message finished."""
        assert self.tx is not None
        tx = self.tx
        if self.reliable:
            # Record the word at emission time, so the buffer only ever
            # holds emitted-but-unretired slots (bounded by the TX gate).
            slot = tx.base_slot + tx.index
            self._retx.setdefault(tx.dst_node, {})[slot] = tx.words[tx.index]
        tx.index += 1
        self._n_data_flits_sent += 1
        if self.tx.done:
            self.tx = None
            return True
        return False

    def flush_stats(self) -> None:
        """Fold the batched per-flit counters into the CounterSet.

        The owning node calls this from its own stats flush (every
        transition to sleep and before any external stats read), so
        observers always see exact values.
        """
        if self._n_data_flits_sent:
            self.stats.inc("data_flits_sent", self._n_data_flits_sent)
            self._n_data_flits_sent = 0
        if self._n_data_flits_received:
            self.stats.inc("data_flits_received", self._n_data_flits_received)
            self._n_data_flits_received = 0
        if self._n_credit_stall_cycles:
            self.stats.inc("credit_stall_cycles", self._n_credit_stall_cycles)
            self._n_credit_stall_cycles = 0
        if self._n_mcast_flits_received:
            self.stats.inc("mcast_flits_received", self._n_mcast_flits_received)
            self._n_mcast_flits_received = 0
