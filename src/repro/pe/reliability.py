"""Per-tile reliability agent: NACK/retransmit timers and credit probes.

Only instantiated when a fault plan is active (``SystemConfig.faults``),
so the fault-free model carries zero overhead.  The agent is the
*initiative* half of the reliable-delivery protocol in
:mod:`repro.pe.tie`: the TIE reacts to tokens (serving NACKs from its
retransmit buffer, answering probes with its current credit value), and
the agent decides *when* those tokens are owed in the first place.

Detection is timer-driven, never arrival-driven: a receive stream that
has not advanced past a missing slot for ``nack_timeout`` cycles gets a
NACK naming that slot, re-armed with exponential backoff (a NACK or its
retransmission may itself be lost).  Two starvation signals arm the
timer:

* a **gap** — words are buffered beyond a missing slot, so something in
  the middle was dropped;
* **demand** — a consumer asked the stream for words that never arrived
  (:attr:`ReceiveStream.wanted`), which catches tail loss where nothing
  later arrives to expose the hole.  Demand alone waits four times
  longer, because "the sender has not sent yet" looks identical to "the
  tail was dropped" and spurious NACKs are pure overhead.

The TX side is watched symmetrically: a sender credit-stalled for the
same horizon probes the gating peer for its current credit value (credit
tokens carry absolute slots, so the re-issued value is idempotent — this
repairs a *lost credit* the way NACKs repair lost data).

After ``max_retries`` expirations without progress the agent records the
failure on the injector's ``gave_up`` list and stops; it never raises.
Deciding that a silent component is dead is the watchdog's job
(:mod:`repro.kernel.watchdog`), which quotes ``gave_up`` in its report.
"""

from __future__ import annotations

import typing

from repro.pe.tie import (
    CREDIT_LIMIT,
    CREDIT_PROBE_WORD,
    MCAST_CREDIT_PROBE_WORD,
    MCAST_NACK_WORD,
    NACK_WORD,
    SLOT_MASK,
    ReceiveStream,
    TieInterface,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dma.engine import DmaTxEngine
    from repro.faults import FaultInjector

#: Demand-only starvation waits this many times longer than a gap before
#: NACKing (see module docstring).
DEMAND_FACTOR = 4


class _Timer:
    """One armed starvation timer (per stream or per credit-gated peer)."""

    __slots__ = ("front", "deadline", "attempt", "dead")

    def __init__(self, front: int, deadline: int) -> None:
        self.front = front      # progress marker; any advance re-arms
        self.deadline = deadline
        self.attempt = 0
        self.dead = False       # retries exhausted; recorded on gave_up


class ReliabilityAgent:
    """Watches one tile's streams and issues NACK/probe tokens."""

    def __init__(
        self,
        tie: TieInterface,
        injector: "FaultInjector",
        dma: "DmaTxEngine | None" = None,
    ) -> None:
        self.tie = tie
        self.node_id = tie.node_id
        self.injector = injector
        self.dma = dma
        plan = injector.plan
        self.nack_timeout = plan.nack_timeout
        self.backoff = plan.nack_backoff
        self.max_retries = plan.max_retries
        #: Sleep horizon the owning node uses while any timer is armed:
        #: fine enough that a deadline is never overshot by more than
        #: half a timeout, coarse enough to stay off the hot path.
        self.poll_interval = max(8, plan.nack_timeout // 2)
        #: True after a tick that left at least one timer armed; the
        #: node then sleeps with a wakeup instead of indefinitely.
        self.wants_poll = False
        self._timers: dict[tuple, _Timer] = {}

    # -- per-cycle scan ------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Arm/advance all starvation timers; called early in node.step."""
        tie = self.tie
        live: set[tuple] = set()
        for src, stream in tie.streams.items():
            self._check_stream(cycle, ("rx", src), src, stream,
                               NACK_WORD, live)
        for src, stream in tie.mcast_streams.items():
            self._check_stream(cycle, ("mrx", src), src, stream,
                               MCAST_NACK_WORD, live)
        self._check_tx(cycle, live)
        timers = self._timers
        if len(live) != len(timers):
            for key in [k for k in timers if k not in live]:
                del timers[key]
        self.wants_poll = bool(timers)

    def _check_stream(
        self, cycle: int, key: tuple, src: int, stream: ReceiveStream,
        marker: int, live: set,
    ) -> None:
        gap = bool(stream.slots)
        if not gap and stream.wanted <= stream.lowest_missing:
            return
        live.add(key)
        self._expire(
            cycle, key, front=stream.lowest_missing, dst=src,
            token=marker | (stream.lowest_missing & SLOT_MASK),
            horizon=self.nack_timeout if gap else
            self.nack_timeout * DEMAND_FACTOR,
            what="nack",
        )

    def _check_tx(self, cycle: int, live: set) -> None:
        tie = self.tie
        tx = tie.tx
        if tx is not None and not tx.done:
            dst = tx.dst_node
            floor = tie._peer_credited.get(dst, 0)
            window = min(CREDIT_LIMIT, tie.retx_slots)
            if tx.current_slot() >= floor + window:
                key = ("tx", dst)
                live.add(key)
                self._expire(
                    cycle, key, front=floor, dst=dst,
                    token=CREDIT_PROBE_WORD,
                    horizon=self.nack_timeout, what="credit probe",
                )
        dma = self.dma
        active = dma._active if dma is not None else None
        if active is not None:
            slot, member, _flit = active.entries[active.index]
            credited = tie.mcast_credited
            gating = active.members if member is None else (member,)
            for m in gating:
                floor = credited.get(m, 0)
                if slot >= floor + CREDIT_LIMIT:
                    key = ("mtx", m)
                    live.add(key)
                    self._expire(
                        cycle, key, front=floor, dst=m,
                        token=MCAST_CREDIT_PROBE_WORD,
                        horizon=self.nack_timeout, what="mcast credit probe",
                    )

    def _expire(
        self, cycle: int, key: tuple, front: int, dst: int, token: int,
        horizon: int, what: str,
    ) -> None:
        timer = self._timers.get(key)
        if timer is None or timer.front != front:
            self._timers[key] = _Timer(front, cycle + horizon)
            return
        if timer.dead or cycle < timer.deadline:
            return
        if timer.attempt >= self.max_retries:
            timer.dead = True
            self.injector.gave_up.append(
                f"pe[{self.node_id}] gave up on {what} to node {dst} "
                f"({key[0]} stream front slot {front}, "
                f"{timer.attempt} retries exhausted at cycle {cycle})"
            )
            return
        timer.attempt += 1
        timer.deadline = cycle + horizon * (self.backoff ** timer.attempt)
        self.tie.pending_credits.push((dst, token))
        self.injector.counts.inc(
            "nacks_issued" if what == "nack" else "probes_issued"
        )
