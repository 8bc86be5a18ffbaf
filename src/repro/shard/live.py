"""Sharded live serving: N cycle engines behind one gateway socket.

:class:`ShardedLiveEngine` is a drop-in for
:class:`~repro.service.engine.CycleEngine` — same surface
(``cycle`` / ``requests`` / ``seen`` / ``start_cycle`` / ``decide`` /
``close_cycle``), so :class:`~repro.gateway.server.GatewayServer` swaps
it in unchanged when ``GatewayConfig.shards > 1``.  Internally each
window's batch is partitioned by source DC (the same
:func:`~repro.decomp.partition.source_shard_map` rule as the classic
sharded broker) and decided by per-shard ``CycleEngine``\\ s whose
decisions are steered through a shared
:class:`~repro.decomp.ledger.BandwidthLedger`: after every window the
shards' committed loads are posted, and on any capacity violation the
ledger's dual prices are bumped so the *next* window's solves see the
surcharge.  Unlike the offline decomposition there is no reconciliation
eviction — a live gateway cannot revoke an acknowledged accept — so on
capacitated topologies the duals are the only (and eventually
sufficient) pressure valve.

Durability differs deliberately from :class:`~repro.shard.ShardedBroker`:
the live fleet shares the gateway's *single* WAL.  ``close_cycle``
merges the shard results into one combined
:class:`~repro.service.broker.CycleResult` (batch records in decision
order, per-edge purchases summed), which journals and recovers through
the unmodified single-journal path.  The ledger's duals are steering
state, not accounting state, and restart at zero on resume; the
committed profit ledger is exact either way.
"""

from __future__ import annotations

import time

import numpy as np

from repro.decomp.ledger import BandwidthLedger
from repro.decomp.partition import shard_of_source, source_shard_map
from repro.net.topology import Topology
from repro.resilience import CycleBudget
from repro.service.cache import DecisionCache
from repro.service.engine import CycleEngine, CycleResult
from repro.service.telemetry import BatchRecord
from repro.shard.broker import ShardConfig
from repro.workload.request import Request

__all__ = ["ShardedLiveEngine"]

_TOL = 1e-9


class ShardedLiveEngine:
    """N per-shard cycle engines coordinated by one bandwidth ledger.

    Built from a :class:`~repro.shard.broker.ShardConfig`: ``shards`` and
    ``partition`` fix the fleet, ``step``/``step0``/``decay`` the
    ledger's dual-price schedule, and every shard engine is
    :meth:`CycleEngine.from_config` of the same config.  The hooks are
    the owner's: a shared decision ``cache``, the ``on_batch``
    write-ahead hook (fired for every shard's records in decision
    order) and ``check_cancelled``.
    """

    def __init__(
        self,
        topology: Topology,
        config: ShardConfig,
        *,
        cache: DecisionCache | None = None,
        on_batch=None,
        check_cancelled=None,
    ) -> None:
        self.topology = topology
        self.num_shards = config.shards
        self.partition = config.partition
        self.on_batch = on_batch
        # Every datacenter's shard is known up front, so routing a bid is
        # a dict lookup on the hot path.
        self._shard_of = source_shard_map(
            topology, topology.datacenters, config.shards, config.partition
        )
        self.ledger = BandwidthLedger.from_topology(
            topology,
            config.slots_per_cycle,
            step=config.step,
            step0=config.step0,
            decay=config.decay,
        )
        #: One wall-clock deadline for the whole fleet's cycle: every
        #: shard engine shares it, so sequential shard decides naturally
        #: split the shrinking remaining budget.  Each engine's
        #: ``start_cycle`` re-arms it (idempotent within a cycle open).
        self.budget = (
            CycleBudget(config.cycle_budget)
            if config.cycle_budget is not None
            else None
        )
        # The decision cache is shared: keys fold the per-shard committed
        # state (and the dual digest when steering), so entries never
        # collide across shards.  Breakers are per engine: one sick shard
        # degrades alone while its siblings keep solving exactly.
        self._engines = [
            CycleEngine.from_config(
                topology,
                config,
                budget=self.budget,
                cache=cache,
                on_batch=self._on_sub_batch,
                check_cancelled=check_cancelled,
            )
            for _ in range(config.shards)
        ]
        self.requests: list[Request] = []
        self.batches: list[BatchRecord] = []
        self._last_shard_results: list[CycleResult] = []
        self._opened_at = time.perf_counter()

    # ------------------------------------------------------------- lifecycle

    @property
    def cycle(self) -> int:
        return self._engines[0].cycle

    def start_cycle(self, cycle_index: int) -> None:
        """Open ``cycle_index`` on every shard engine at once."""
        for engine in self._engines:
            engine.start_cycle(cycle_index)
        self.requests = []
        self.batches = []
        self._opened_at = time.perf_counter()

    def seen(self, request_id: int) -> bool:
        return any(engine.seen(request_id) for engine in self._engines)

    def _on_sub_batch(self, record: BatchRecord) -> None:
        # Collected in decision order across shards — this IS the batch
        # order of the combined CycleResult, so the single gateway WAL
        # journals the fleet's records exactly as they were decided.
        self.batches.append(record)
        if self.on_batch is not None:
            self.on_batch(record)

    # -------------------------------------------------------------- deciding

    def decide(
        self,
        batch: list[Request],
        *,
        window_start: int,
        window_shed: int = 0,
    ) -> list[int | None]:
        """Decide one window across the fleet; choices in input order.

        The batch splits by source shard; each sub-batch is decided by
        its engine against the ledger's current effective prices.  After
        the window, committed loads are posted and — on any violation —
        the duals are bumped, steering the next window.  ``window_shed``
        is attributed to shard 0 (sheds happen before partitioning).
        """
        steering = self.ledger.capped and np.any(self.ledger.duals)
        duals = self.ledger.duals.copy() if steering else None
        sub_batches: list[list[Request]] = [[] for _ in self._engines]
        for req in batch:
            shard = self._shard_of.get(req.source)
            if shard is None:
                # A source outside the topology map (cannot happen behind
                # the gateway's bid validation): stable hash fallback.
                shard = self._shard_of[req.source] = shard_of_source(
                    req.source, self.num_shards
                )
            sub_batches[shard].append(req)
        choice_of: dict[int, int | None] = {}
        for shard, engine in enumerate(self._engines):
            sub = sub_batches[shard]
            shed = window_shed if shard == 0 else 0
            if not sub and not shed:
                continue
            engine.dual_prices = duals
            sub_choices = engine.decide(
                sub, window_start=window_start, window_shed=shed
            )
            for req, choice in zip(sub, sub_choices):
                choice_of[req.request_id] = choice
        self.requests.extend(batch)
        if self.ledger.capped:
            self.ledger.begin_round()
            for shard, engine in enumerate(self._engines):
                self.ledger.post(shard, engine.committed)
            if float(self.ledger.violation().max(initial=0.0)) > _TOL:
                self.ledger.update_prices()
        return [choice_of[req.request_id] for req in batch]

    # --------------------------------------------------------------- closing

    def close_cycle(self) -> CycleResult:
        """Merge the shards' cycle results into one combined result."""
        results = [engine.close_cycle() for engine in self._engines]
        self._last_shard_results = results
        assignment: dict[int, int | None] = {}
        purchased: dict[int, float] = {}
        for result in results:
            assignment.update(result.assignment)
            for edge, units in result.purchased.items():
                purchased[edge] = purchased.get(edge, 0.0) + units
        return CycleResult(
            cycle=self.cycle,
            num_requests=sum(r.num_requests for r in results),
            accepted=sum(r.accepted for r in results),
            declined=sum(r.declined for r in results),
            shed=sum(r.shed for r in results),
            revenue=sum(r.revenue for r in results),
            cost=sum(r.cost for r in results),
            profit=sum(r.profit for r in results),
            wall_seconds=time.perf_counter() - self._opened_at,
            batches=list(self.batches),
            assignment=assignment,
            purchased={edge: purchased[edge] for edge in sorted(purchased)},
        )

    def shard_counters(self) -> dict[int, dict[str, float]]:
        """Per-shard counters of the last closed cycle (for telemetry)."""
        counters: dict[int, dict[str, float]] = {}
        for shard, result in enumerate(self._last_shard_results):
            counters[shard] = {
                "decisions": result.accepted + result.declined,
                "accepted": result.accepted,
                "declined": result.declined,
                "shed": result.shed,
                "revenue": result.revenue,
                "profit": result.profit,
            }
            breaker = self._engines[shard].breaker
            if breaker is not None:
                counters[shard]["breaker_opens"] = breaker.opens
                counters[shard]["breaker_failures"] = breaker.failures
        return counters

    def rung_counts(self) -> dict[str, int]:
        """Fleet-wide ladder rung counts (all zeros when resilience is off)."""
        totals: dict[str, int] = {}
        for engine in self._engines:
            if engine.ladder is None:
                continue
            for rung, count in engine.ladder.counts.items():
                totals[rung] = totals.get(rung, 0) + count
        return totals

    def breaker_counters(self) -> dict[str, int]:
        """Fleet-wide breaker counters summed across shards."""
        totals = {"opens": 0, "failures": 0, "probes": 0, "short_circuits": 0}
        for engine in self._engines:
            breaker = engine.breaker
            if breaker is None:
                continue
            totals["opens"] += breaker.opens
            totals["failures"] += breaker.failures
            totals["probes"] += breaker.probes
            totals["short_circuits"] += breaker.short_circuits
        return totals

    def __repr__(self) -> str:
        return (
            f"ShardedLiveEngine(shards={self.num_shards}, "
            f"partition={self.partition!r}, cycle={self.cycle})"
        )
