"""The processing-element node: core FSM + cache + bridge + TIE + arbiter.

One :class:`ProcessorNode` models a complete MEDEA tile (Fig. 3): the
in-order core executing its program, the L1 cache with its write policy,
the write buffer, the pif2NoC bridge with reorder buffer, the TIE
message-passing interface and the NoC-access arbiter in front of the
single injection port.

Intra-cycle phase order (one ``step`` = one clock):

1. drain one flit from the ejection port (data/req demux of Fig. 2-b),
   then let a fitted DMA engine's reduction assist combine one arrived
   multicast double into its accumulate-on-receive descriptor;
2. issue the next memory job to the bridge if it is idle;
3. offer the bridge's pending flit to the arbiter (memory class);
4. offer the message path's pending flit to the arbiter (message class):
   credits first, then request tokens, then the DMA engine's multicast
   stream (when a :mod:`repro.dma` engine is fitted), then the TIE's
   data stream;
5. run the core — execute program operations until one blocks or costs
   time (at most one timed operation per cycle);
6. arbiter grants at most one flit to the injection port.

The node sleeps whenever nothing above can make progress and is woken by
flit arrival, a scheduled compute/backoff expiry, or job completion.
"""

from __future__ import annotations

import enum
import typing
from collections import deque
from collections.abc import Generator

from repro.bridge.arbiter import NocAccessArbiter
from repro.bridge.pif import MemTransaction
from repro.bridge.pif2noc import Pif2NocBridge
from repro.cache.l1 import L1Cache, WritePolicy
from repro.cache.writebuffer import WriteBuffer
from repro.errors import ProgramError, ProtocolError
from repro.kernel.component import Component
from repro.mem.memory_map import MemoryMap
from repro.mem.scratchpad import Scratchpad
from repro.noc.flit import Flit
from repro.noc.network import NodePorts
from repro.noc.packet import PacketType
from repro.pe.costmodel import FpCostModel
from repro.pe.tie import TieInterface

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dma.engine import DmaTxEngine
    from repro.pe.reliability import ReliabilityAgent


class CoreState(enum.Enum):
    RUNNING = "running"
    WAIT_MEM = "wait_mem"      # blocking transaction in the pipeline
    WAIT_WB = "wait_wb"        # write buffer full, store stalled
    WAIT_TX = "wait_tx"        # streaming a TIE message out
    WAIT_MSG = "wait_msg"      # MPI-style receive pending
    WAIT_REQ = "wait_req"      # control-token receive pending
    WAIT_LOCK = "wait_lock"    # lock denied, backing off and retrying
    WAIT_FENCE = "wait_fence"  # draining all outstanding memory traffic
    DONE = "done"


#: Pre-built counter keys, so state changes and blocking ops never build
#: f-strings on the per-cycle path.
_CYCLES_KEY = {state: f"cycles_{state.value}" for state in CoreState}
_OPS_TAG_KEY = {tag: f"ops_{tag}" for tag in ("uload", "lock", "unlock")}


class _Job:
    """One queued memory-pipeline transaction."""

    __slots__ = ("txn", "tag", "not_before")

    def __init__(self, txn: MemTransaction, tag: str, not_before: int = 0) -> None:
        self.txn = txn
        self.tag = tag  # 'refill' | 'evict' | 'posted' | 'uload' | 'lock' | 'unlock'
        self.not_before = not_before


class ProcessorNode(Component):
    """A worker tile: executes one program against the full memory system."""

    def __init__(
        self,
        rank: int,
        ports: NodePorts,
        cache: L1Cache,
        write_buffer: WriteBuffer,
        bridge: Pif2NocBridge,
        arbiter: NocAccessArbiter,
        tie: TieInterface,
        scratchpad: Scratchpad,
        memory_map: MemoryMap,
        cost: FpCostModel,
        lock_retry_backoff: int = 16,
        recv_overhead: int = 2,
        notes: list[tuple[int, int, str]] | None = None,
        dma: "DmaTxEngine | None" = None,
        reliability: "ReliabilityAgent | None" = None,
    ) -> None:
        super().__init__(f"pe[{rank}]")
        self.rank = rank
        self.node_id = ports.node
        self.ports = ports
        ports.eject.owner = self
        self.cache = cache
        self.write_buffer = write_buffer
        self.bridge = bridge
        self.arbiter = arbiter
        self.tie = tie
        self.scratchpad = scratchpad
        self.map = memory_map
        self.cost = cost
        self.lock_retry_backoff = lock_retry_backoff
        self.recv_overhead = recv_overhead
        self.notes = notes if notes is not None else []
        #: Optional DMA/collective TX engine (None = seed behaviour).
        self.dma = dma
        #: Reliability agent (fault plan active only): NACK/probe timers.
        self.reliability = reliability

        self._program: Generator | None = None
        self.state = CoreState.DONE
        self._state_since = 0
        self._ready_at = 0
        self._send_value: object = None
        self._pending_op: tuple | None = None
        self._jobs: deque[_Job] = deque()
        self._active_job: _Job | None = None
        #: Posted writes queued or in flight (write-buffer occupancy).
        self._n_posted = 0
        #: Pending blocking receive: (src_node, n_words, from_mcast_stream).
        self._wait_msg: tuple[int, int, bool] | None = None
        self._pending_req_flit: Flit | None = None
        self._last_op: tuple | None = None
        # Hot-path bindings: the deques backing the RX queue and the TIE
        # credit queue are stable objects, so step() can test them without
        # attribute chains or property calls.
        self._rx_items = ports.eject.queue._items
        self._credit_items = tie.pending_credits._items
        # Hot op counters, batched as plain ints and flushed into the
        # CounterSet whenever the node sleeps (see flush_op_stats).
        self._n_compute = 0
        self._n_compute_cycles = 0
        self._n_load_hit = 0
        self._n_load_miss = 0
        self._n_store_wt = 0
        self._n_store_hit = 0
        self._n_store_miss = 0
        self._n_lmem = 0
        # WAIT_TX cycles where the TIE data stream was credit-gated (the
        # peer's window exhausted), splitting cycles_wait_tx into
        # credit_stall vs plain streaming for the cycle ledger.
        self._n_credit_wait = 0

    # -- program control -------------------------------------------------------

    def load_program(self, program: Generator) -> None:
        """Install a fresh program generator and make the core runnable."""
        if self._program is not None and self.state is not CoreState.DONE:
            raise ProgramError(f"{self.name}: program already running")
        if not hasattr(program, "send"):
            # Accept any iterable of ops (ops that need no results).
            program = (op for op in program)
        self._program = program
        self.state = CoreState.RUNNING
        self._send_value = None
        self._pending_op = None
        self._ready_at = 0
        self.wake()

    @property
    def done(self) -> bool:
        return self.state is CoreState.DONE

    @property
    def drained(self) -> bool:
        """Program finished and every queued side effect has left the node."""
        return (
            self.state is CoreState.DONE
            and not self._jobs
            and self._active_job is None
            and self.bridge.idle
            and not self.tie.tx_busy
            and self._pending_req_flit is None
            and self.tie.pending_credits.empty
            and not self.tie.pending_retx
            and (self.dma is None or not (self.dma.busy or self.dma.rx_busy))
            and not self.arbiter.has_pending
            and self.ports.eject.queue.empty
        )

    # -- clocked behaviour ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        # The six phases of the module docstring, with each phase's cheap
        # emptiness guard inlined so an idle phase costs one attribute test.
        bridge = self.bridge
        tie = self.tie
        dma = self.dma
        if self._rx_items:
            self._phase_rx(cycle)
        if self.reliability is not None:
            # After RX (freshly arrived words clear starvation before any
            # timer can expire on them), before TX (tokens armed this
            # cycle can leave this cycle).
            self.reliability.tick(cycle)
        if dma is not None and dma._rx is not None:
            # Reduction assist: combine one arrived double per cycle.
            dma.rx_pump()
        if self._jobs and self._active_job is None and bridge.idle:
            job = self._jobs[0]
            if job.not_before <= cycle:
                self._jobs.popleft()
                self._active_job = job
                bridge.start(job.txn, cycle)
        arbiter = self.arbiter
        outgoing = bridge._outgoing
        if outgoing and arbiter.offer_memory(outgoing[0]):
            bridge.output_sent()
        if (
            self._credit_items
            or self._pending_req_flit is not None
            or tie.tx is not None
            or tie.pending_retx
            or (dma is not None and dma.busy)
        ):
            self._phase_tie_tx(cycle)
        # Core phase (inlined _phase_core).
        if self.state is not CoreState.RUNNING:
            self._try_unblock(cycle)
        tie.rx_event = False
        if self.state is CoreState.RUNNING and self._ready_at <= cycle:
            self._execute(cycle)
        # Arbiter grant: skipped when it has no flit and no busy port to
        # account for (tick would be side-effect free).
        if arbiter.port.pending is not None or arbiter.has_pending:
            arbiter.tick()
        self._phase_sleep(cycle)

    # 1 -------------------------------------------------------------------------------

    def _phase_rx(self, cycle: int) -> None:
        queue = self.ports.eject.queue
        if queue.empty:
            return
        flit = queue.pop()
        if flit.ptype >= PacketType.MESSAGE:  # MESSAGE or MULTICAST
            self.tie.accept(flit)
        else:
            completed = self.bridge.on_reply(flit, cycle)
            if completed is not None:
                self._job_completed(cycle)

    # 4 -------------------------------------------------------------------------------

    def _phase_tie_tx(self, cycle: int) -> None:
        # Flow-control credits first: they unblock a stalled peer and are
        # generated by the TIE hardware, not the program.
        if self._credit_items:
            if self.arbiter.offer_message(self.tie.credit_flit()):
                self.tie.credit_sent()
            return
        if self.tie.pending_retx:
            # NACK-requested retransmissions next: the peer's stream is
            # stalled on these words (reliable-delivery mode only).
            retx = self.tie.retx_flit()
            if retx is not None and self.arbiter.offer_message(retx):
                self.tie.retx_sent()
            return
        if self._pending_req_flit is not None:
            if self.arbiter.offer_message(self._pending_req_flit):
                self._pending_req_flit = None
                if self.state is CoreState.WAIT_TX:
                    self._resume(cycle, cost=1)
            return
        dma = self.dma
        if dma is not None and dma.busy:
            # The engine drains autonomously: activate the head
            # descriptor (unicast heads ride the TIE's streaming path
            # below) and offer the current multicast flit, one per cycle.
            dma.pump()
            flit = dma.tx_current()
            if flit is not None:
                if self.arbiter.offer_message(flit):
                    dma.tx_advance()
                return
        flit = self.tie.tx_current()
        if flit is None:
            # tx_current() is None with a live tx exactly when the credit
            # gate refused it; a blocked core is credit-stalled this cycle.
            if self.tie.tx is not None and self.state is CoreState.WAIT_TX:
                self._n_credit_wait += 1
            return
        if self.arbiter.offer_message(flit):
            finished = self.tie.tx_advance()
            if finished and self.state is CoreState.WAIT_TX:
                self._resume(cycle, cost=1)

    # 5 -------------------------------------------------------------------------------

    def _try_unblock(self, cycle: int) -> None:
        state = self.state
        if state is CoreState.WAIT_MSG and self.tie.rx_event:
            assert self._wait_msg is not None
            src_node, n_words, from_mcast = self._wait_msg
            if from_mcast:
                stream = self.tie.mcast_stream_from(src_node)
            else:
                stream = self.tie.stream_from(src_node)
            if stream.available(n_words):
                self._wait_msg = None
                self._send_value = stream.take(n_words)
                self._resume(cycle, cost=self.recv_overhead + n_words)
        elif state is CoreState.WAIT_REQ and self.tie.requests:
            self._send_value = self.tie.requests.pop()
            self._resume(cycle, cost=2)
        elif state is CoreState.WAIT_FENCE and self._pipeline_empty():
            self._resume(cycle, cost=1)

    def _pipeline_empty(self) -> bool:
        return not self._jobs and self._active_job is None and self.bridge.idle

    def _resume(self, cycle: int, cost: int) -> None:
        self._change_state(CoreState.RUNNING, cycle)
        self._ready_at = cycle + cost

    def _change_state(self, new_state: CoreState, cycle: int) -> None:
        old = self.state
        if old is not new_state:
            self.stats.inc(_CYCLES_KEY[old], cycle - self._state_since)
            self._state_since = cycle
            self.state = new_state

    # -- the operation interpreter ----------------------------------------------------

    def _execute(self, cycle: int) -> None:
        while True:
            op = self._pending_op
            if op is None:
                op = self._next_op(cycle)
                if op is None:
                    return
            else:
                self._pending_op = None
            self._last_op = op
            code = op[0]
            if code == "compute":
                cycles = op[1]
                if cycles <= 0:
                    continue
                self._ready_at = cycle + cycles
                self._n_compute += 1
                self._n_compute_cycles += cycles
                return
            if code == "load":
                if self._op_load(cycle, op[1]):
                    return
                continue
            if code == "store":
                if self._op_store(cycle, op):
                    return
                continue
            if code == "lmem_read":
                self._send_value = self.scratchpad.read_word(op[1])
                self._ready_at = cycle + Scratchpad.ACCESS_CYCLES
                self._n_lmem += 1
                return
            if code == "lmem_write":
                self.scratchpad.write_word(op[1], op[2])
                self._ready_at = cycle + Scratchpad.ACCESS_CYCLES
                self._n_lmem += 1
                return
            if code == "send":
                if self._tx_port_contended():
                    # A DMA descriptor is streaming through the TIE TX
                    # port; retry the send next cycle instead of
                    # colliding with the engine (hardware would
                    # backpressure the core's TIE write the same way).
                    self._pending_op = op
                    self._ready_at = cycle + 1
                    return
                self.tie.begin_send(op[1], op[2])
                self._change_state(CoreState.WAIT_TX, cycle)
                self.stats.inc("ops_send")
                return
            if code == "recv":
                self._op_recv(cycle, op[1], op[2])
                return
            if code == "sendreq":
                self._pending_req_flit = self.tie.make_request_flit(op[1], op[2])
                self._change_state(CoreState.WAIT_TX, cycle)
                self.stats.inc("ops_sendreq")
                return
            if code == "recvreq":
                if self.tie.requests:
                    self._send_value = self.tie.requests.pop()
                    self._ready_at = cycle + 2
                else:
                    self._change_state(CoreState.WAIT_REQ, cycle)
                self.stats.inc("ops_recvreq")
                return
            if code == "isend":
                # Non-blocking send: write the TX descriptor and keep
                # running; the TIE streams the flits autonomously (the
                # node stays awake while tie.tx is pending).  The program
                # must confirm ("txdone",) before starting another send.
                if self._tx_port_contended():
                    self._pending_op = op
                    self._ready_at = cycle + 1
                    return
                self.tie.begin_send(op[1], op[2])
                self._ready_at = cycle + 2
                self.stats.inc("ops_isend")
                return
            if code == "txdone":
                # One-cycle poll of the TIE TX status register.
                self._send_value = self.tie.tx is None
                self._ready_at = cycle + 1
                self.stats.inc("ops_txdone")
                return
            if code == "trecv":
                # Non-blocking receive: complete at the same cost as a
                # blocking recv when the words are ready, else report
                # None after a one-cycle status poll.
                stream = self.tie.stream_from(op[1])
                n_words = op[2]
                if stream.available(n_words):
                    self._send_value = stream.take(n_words)
                    self._ready_at = cycle + self.recv_overhead + n_words
                else:
                    self._send_value = None
                    self._ready_at = cycle + 1
                self.stats.inc("ops_trecv")
                return
            if code == "qsend":
                # Post a unicast descriptor on the DMA TX queue; result
                # False means the queue was full (retry later).  The core
                # keeps running either way — the queue retires the
                # one-descriptor serialization of isend.
                self._send_value = self._dma().post_unicast(op[1], op[2])
                self._ready_at = cycle + 2
                self.stats.inc("ops_qsend")
                return
            if code == "qmcast":
                # Post a multicast descriptor (destination bitmask).
                self._send_value = self._dma().post_multicast(op[1], op[2])
                self._ready_at = cycle + 2
                self.stats.inc("ops_qmcast")
                return
            if code == "qstat":
                # One-cycle poll of the queue-status register.
                self._send_value = self._dma().free_slots
                self._ready_at = cycle + 1
                self.stats.inc("ops_qstat")
                return
            if code == "qreduce":
                # Post an accumulate-on-receive descriptor: the engine
                # combines the multicast stream from node op[1] into the
                # accumulator op[2] as flits arrive.  False = engine
                # busy with a previous reduce (retry later).
                self._send_value = self._dma().post_reduce(op[1], op[2], op[3])
                self._ready_at = cycle + 2
                self.stats.inc("ops_qreduce")
                return
            if code == "qrpoll":
                # One-cycle poll of the reduce-status register; returns
                # the finished accumulator (clearing the descriptor) or
                # None while the engine is still combining.
                self._send_value = self._dma().rx_result_poll()
                self._ready_at = cycle + 1
                self.stats.inc("ops_qrpoll")
                return
            if code == "mrecv":
                # Blocking receive from the multicast stream of node op[1].
                self._op_recv(cycle, op[1], op[2], from_mcast=True)
                return
            if code == "tmrecv":
                # Non-blocking multicast-stream take (trecv's twin).
                stream = self.tie.mcast_stream_from(op[1])
                n_words = op[2]
                if stream.available(n_words):
                    self._send_value = stream.take(n_words)
                    self._ready_at = cycle + self.recv_overhead + n_words
                else:
                    self._send_value = None
                    self._ready_at = cycle + 1
                self.stats.inc("ops_tmrecv")
                return
            if code == "uload":
                self._enqueue_blocking(
                    MemTransaction(PacketType.SINGLE_READ, self._check(op[1])),
                    "uload", cycle,
                )
                return
            if code == "ustore":
                if self._post_write(op[1], [op[2]], PacketType.SINGLE_WRITE, op):
                    self._ready_at = cycle + 1
                    self.stats.inc("ops_ustore")
                else:
                    self._change_state(CoreState.WAIT_WB, cycle)
                return
            if code == "flush":
                if self._op_flush(cycle, op):
                    return
                continue
            if code == "inval":
                self.cache.invalidate_line(op[1])
                self._ready_at = cycle + 1
                self.stats.inc("ops_inval")
                return
            if code == "fence":
                if self._pipeline_empty():
                    self._ready_at = cycle + 1
                else:
                    self._change_state(CoreState.WAIT_FENCE, cycle)
                return
            if code == "lock":
                self._enqueue_blocking(
                    MemTransaction(PacketType.LOCK, self._check(op[1])),
                    "lock", cycle,
                )
                return
            if code == "unlock":
                self._enqueue_blocking(
                    MemTransaction(PacketType.UNLOCK, self._check(op[1])),
                    "unlock", cycle,
                )
                return
            if code == "note":
                self.notes.append((cycle, self.rank, op[1]))
                continue
            raise ProgramError(f"{self.name}: unknown operation {op!r}")

    def _tx_port_contended(self) -> bool:
        """True when a queued DMA descriptor currently owns the TIE TX.

        Only possible with an engine fitted: without one, a busy TX at a
        send/isend op is a program error and begin_send raises as before.
        """
        return self.dma is not None and self.tie.tx is not None

    def _dma(self) -> "DmaTxEngine":
        if self.dma is None:
            raise ProgramError(
                f"{self.name}: no DMA/TX-queue engine on this tile; set "
                f"dma_tx_queue_depth >= 1 on the SystemConfig"
            )
        return self.dma

    def _next_op(self, cycle: int) -> tuple | None:
        assert self._program is not None
        try:
            op = self._program.send(self._send_value)
        except StopIteration:
            self._change_state(CoreState.DONE, cycle)
            return None
        self._send_value = None
        return op

    # -- memory operations ---------------------------------------------------------------

    def _check(self, addr: int) -> int:
        self.map.check_access(self.rank, addr)
        return addr

    def _op_load(self, cycle: int, addr: int) -> bool:
        """Returns True when the core must stop executing this cycle."""
        self.map.check_access(self.rank, addr)
        line = self.cache.lookup(addr)
        if line is not None:
            self._send_value = line.words[(addr % self.cache.line_bytes) >> 2]
            self._ready_at = cycle + 1
            self._n_load_hit += 1
            return True
        self._n_load_miss += 1
        self._start_refill(addr, cycle, ("load", addr))
        return True

    def _op_store(self, cycle: int, op: tuple) -> bool:
        __, addr, value = op
        self.map.check_access(self.rank, addr)
        if self.cache.policy is WritePolicy.WRITE_THROUGH:
            line = self.cache.lookup(addr, is_write=True)
            if not self._post_write(addr, [value], PacketType.SINGLE_WRITE, op):
                self._change_state(CoreState.WAIT_WB, cycle)
                return True
            if line is not None:
                # Keep the cached copy coherent with memory; stays clean.
                self.cache.write_word(addr, value, mark_dirty=False)
            self._ready_at = cycle + 1
            self._n_store_wt += 1
            return True
        # Write-back: write-allocate on miss.
        line = self.cache.lookup(addr, is_write=True)
        if line is not None:
            self.cache.write_word(addr, value, mark_dirty=True)
            self._ready_at = cycle + 1
            self._n_store_hit += 1
            return True
        self._n_store_miss += 1
        self._start_refill(addr, cycle, ("store_fill", addr, value))
        return True

    def _start_refill(self, addr: int, cycle: int, continuation: tuple) -> None:
        line_addr = self.cache.line_addr(addr)
        needs_wb, victim_addr, victim_words = self.cache.victim_for(addr)
        if needs_wb:
            self._jobs.append(
                _Job(
                    MemTransaction(
                        PacketType.BLOCK_WRITE, victim_addr,
                        write_words=victim_words, blocking=False,
                    ),
                    "evict",
                )
            )
        self._jobs.append(
            _Job(MemTransaction(PacketType.BLOCK_READ, line_addr), "refill")
        )
        self._pending_op = continuation
        self._change_state(CoreState.WAIT_MEM, cycle)

    def _post_write(
        self, addr: int, words: list[int], kind: PacketType, op: tuple
    ) -> bool:
        """Queue a posted write against write-buffer capacity."""
        self._check(addr)
        if self._n_posted >= self.write_buffer.depth:
            self.write_buffer.stall_cycles += 1
            self._pending_op = op
            return False
        self._jobs.append(
            _Job(MemTransaction(kind, addr, write_words=words, blocking=False),
                 "posted")
        )
        self._n_posted += 1
        return True

    def _op_flush(self, cycle: int, op: tuple) -> bool:
        addr = op[1]
        result = self.cache.writeback_line(addr)
        if result is None:
            self._ready_at = cycle + 1
            self.stats.inc("ops_flush_clean")
            return True
        line_addr, words = result
        if not self._post_write(line_addr, words, PacketType.BLOCK_WRITE, op):
            # Roll the dirty bit back: the flush never happened this cycle.
            line = self.cache.probe(addr)
            assert line is not None
            line.dirty = True
            self._change_state(CoreState.WAIT_WB, cycle)
            return True
        self._ready_at = cycle + 1
        self.stats.inc("ops_flush_dirty")
        return True

    def _op_recv(self, cycle: int, src_node: int, n_words: int,
                 from_mcast: bool = False) -> None:
        if from_mcast:
            stream = self.tie.mcast_stream_from(src_node)
            counter = "ops_mrecv"
        else:
            stream = self.tie.stream_from(src_node)
            counter = "ops_recv"
        if stream.available(n_words):
            self._send_value = stream.take(n_words)
            self._ready_at = cycle + self.recv_overhead + n_words
            self.stats.inc(counter)
            return
        self._wait_msg = (src_node, n_words, from_mcast)
        self._change_state(CoreState.WAIT_MSG, cycle)
        self.stats.inc(counter)

    def _enqueue_blocking(self, txn: MemTransaction, tag: str, cycle: int) -> None:
        self._jobs.append(_Job(txn, tag))
        self._change_state(CoreState.WAIT_MEM if tag != "lock" else CoreState.WAIT_LOCK,
                           cycle)
        self.stats.inc(_OPS_TAG_KEY[tag])

    # -- job completion ----------------------------------------------------------------------

    def _job_completed(self, cycle: int) -> None:
        job = self._active_job
        assert job is not None, "bridge completed with no active job"
        self._active_job = None
        tag = job.tag
        if tag == "posted":
            self._n_posted -= 1
            if self.state is CoreState.WAIT_WB:
                # Retry the stalled op next cycle; _pending_op still holds it.
                self._resume(cycle, cost=1)
            return
        if tag == "evict":
            return
        if tag == "refill":
            self.cache.install(job.txn.addr, job.txn.read_words)
            assert self._pending_op is not None
            code = self._pending_op[0]
            if code == "store_fill":
                __, addr, value = self._pending_op
                self._pending_op = None
                self.cache.write_word(addr, value, mark_dirty=True)
                self._resume(cycle, cost=1)
            else:
                # Re-execute the load; it is now a guaranteed hit.
                self._resume(cycle, cost=0)
            return
        if tag == "uload":
            self._send_value = job.txn.read_words[0]
            self._resume(cycle, cost=1)
            return
        if tag == "lock":
            if job.txn.granted:
                self._resume(cycle, cost=1)
            else:
                self.stats.inc("lock_retries")
                self._jobs.append(
                    _Job(
                        MemTransaction(PacketType.LOCK, job.txn.addr),
                        "lock",
                        not_before=cycle + self.lock_retry_backoff,
                    )
                )
            return
        if tag == "unlock":
            self._resume(cycle, cost=1)
            return
        raise ProtocolError(f"unknown job tag {tag!r}")

    # -- sleep decision --------------------------------------------------------------------------

    def _phase_sleep(self, cycle: int) -> None:
        # Fast path: a running core that will be ready within a cycle
        # always stays awake, whatever else is pending.
        if self.state is CoreState.RUNNING and self._ready_at <= cycle + 1:
            return
        if self._rx_items:
            return
        if self.bridge._outgoing:
            return
        if self.arbiter.has_pending:
            return
        if (
            self.tie.tx is not None
            or self._pending_req_flit is not None
            or self._credit_items
            or self.tie.pending_retx
        ):
            return
        if self.dma is not None and (self.dma.busy or self.dma.rx_can_progress()):
            return
        if self._active_job is None and self._jobs:
            head = self._jobs[0]
            if head.not_before <= cycle + 1:
                return
            if self._nothing_but_backoff():
                self.flush_op_stats()
                self.sleep(until=head.not_before)
                return
            return
        if self.state is CoreState.RUNNING:
            if self._ready_at > cycle + 1:
                self.flush_op_stats()
                self.sleep(until=self._ready_at)
            return
        if self.state is CoreState.WAIT_FENCE and self._pipeline_empty():
            return
        # Blocked on an external event (reply flit, message, token) or done.
        self.flush_op_stats()
        if self.reliability is not None and self.reliability.wants_poll:
            # A starvation timer is armed: wake to check it even if no
            # flit ever arrives (the very loss being timed out on).
            self.sleep(until=cycle + self.reliability.poll_interval)
            return
        self.sleep()

    def _nothing_but_backoff(self) -> bool:
        return self.state is CoreState.WAIT_LOCK and self.bridge.idle

    def flush_op_stats(self) -> None:
        """Fold the batched hot-path op counters into the CounterSet.

        Called on every transition to sleep and before any external stats
        read (``MedeaSystem.collect_stats``), so observers see exact values.
        """
        self.tie.flush_stats()
        if self.dma is not None:
            self.dma.flush_stats()
        inc = self.stats.inc
        if self._n_compute:
            inc("ops_compute", self._n_compute)
            inc("compute_cycles", self._n_compute_cycles)
            self._n_compute = 0
            self._n_compute_cycles = 0
        if self._n_load_hit:
            inc("ops_load_hit", self._n_load_hit)
            self._n_load_hit = 0
        if self._n_load_miss:
            inc("ops_load_miss", self._n_load_miss)
            self._n_load_miss = 0
        if self._n_store_wt:
            inc("ops_store_wt", self._n_store_wt)
            self._n_store_wt = 0
        if self._n_store_hit:
            inc("ops_store_hit", self._n_store_hit)
            self._n_store_hit = 0
        if self._n_store_miss:
            inc("ops_store_miss", self._n_store_miss)
            self._n_store_miss = 0
        if self._n_lmem:
            inc("ops_lmem", self._n_lmem)
            self._n_lmem = 0
        if self._n_credit_wait:
            inc("credit_wait_cycles", self._n_credit_wait)
            self._n_credit_wait = 0

    # -- diagnostics --------------------------------------------------------------------------------

    def cycle_ledger(self, end_cycle: int) -> dict[str, int]:
        """Exact per-state cycle partition of ``[0, end_cycle)``.

        Every ``_change_state`` adds ``cycle - _state_since`` to the old
        state's counter and moves ``_state_since``; folding the residual
        ``end_cycle - _state_since`` into the *current* state therefore
        makes the partition sum to ``end_cycle`` bit-exactly, by
        construction.  WAIT_TX is split into ``credit_stall`` (cycles the
        TIE data stream was credit-gated while the core blocked) and
        ``tx_stream`` (the rest: streaming / arbiter / port time) using
        the always-on ``credit_wait_cycles`` counter.  Read-only: flushes
        batched counters but never changes timing.
        """
        self.flush_op_stats()
        raw = {
            state: self.stats.get(_CYCLES_KEY[state]) for state in CoreState
        }
        raw[self.state] += end_cycle - self._state_since
        credit = min(self.stats.get("credit_wait_cycles"),
                     raw[CoreState.WAIT_TX])
        return {
            "compute": raw[CoreState.RUNNING],
            "mem_stall": (
                raw[CoreState.WAIT_MEM]
                + raw[CoreState.WAIT_WB]
                + raw[CoreState.WAIT_FENCE]
            ),
            "credit_stall": credit,
            "tx_stream": raw[CoreState.WAIT_TX] - credit,
            "wait_msg": raw[CoreState.WAIT_MSG],
            "barrier_spin": raw[CoreState.WAIT_REQ],
            "lock_spin": raw[CoreState.WAIT_LOCK],
            "idle": raw[CoreState.DONE],
        }

    def describe_state(self) -> str:
        return (
            f"{self.state.value}, ready_at={self._ready_at}, "
            f"jobs={len(self._jobs)}, active_job="
            f"{self._active_job.tag if self._active_job else None}, "
            f"last_op={self._last_op!r}, bridge={self.bridge.describe()}"
        )
