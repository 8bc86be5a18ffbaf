"""The cycle engine: the one implementation of the per-batch admission loop.

Every serving front end decides bids through :class:`CycleEngine`.  The
engine is push-driven: its owner hands it each closed admission window's
arrivals through :meth:`~CycleEngine.decide`, and it keeps the state of
one billing cycle — committed (edge, slot) loads, charged integer units,
the assignment, the per-batch telemetry records.  Who pushes differs:

* :func:`repro.service.broker.run_cycle` walks a simulated (or injected)
  clock over a whole cycle's known bids;
* :class:`repro.gateway.GatewayServer` pushes what really arrived when a
  wall-clock window closes;
* the shard fleets (:class:`repro.shard.ShardedBroker`,
  :class:`repro.shard.ShardedLiveEngine`) give each shard its own engine
  and steer it through :attr:`CycleEngine.dual_prices`.

Each window is split into ``max_batch``-bounded batches, and every batch
is decided exactly by :func:`repro.core.online.solve_batch` (or replayed
from the :class:`~repro.service.cache.DecisionCache`, or, with a budget
or breaker, routed down the
:class:`~repro.resilience.ladder.DegradationLadder`), then charged with
:func:`repro.core.online.commit_decision`.  Batch instances are built
per batch over the topology's memoized candidate paths; edge indexing
comes from the topology alone, so every batch instance agrees on the
ledger arrays.

:meth:`CycleEngine.close_cycle` returns an ordinary :class:`CycleResult`,
which the durability layer journals through the same ``batch``/``cycle``
records whichever front end served the cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.online import commit_decision, solve_batch
from repro.exceptions import GatewayError, SolverTimeoutError
from repro.lp.result import SolveStatus
from repro.net.topology import Topology
from repro.resilience import CircuitBreaker, CycleBudget, DegradationLadder
from repro.service.cache import DecisionCache
from repro.service.telemetry import BatchRecord
from repro.workload.request import Request, RequestSet

__all__ = ["CycleEngine", "CycleResult"]


@dataclass
class CycleResult:
    """One billing cycle's ledger: counts, money, and the full assignment.

    ``accepted + declined + shed == num_requests``; ``revenue``/``cost``/
    ``profit`` use the same peak-based integer-unit charging as the offline
    solutions.  ``assignment`` maps every request id to its chosen path (or
    ``None``), so callers can rebuild the :class:`Schedule` locally — the
    worker pool ships this compact result instead of whole schedules.
    ``purchased`` is the cycle's final bandwidth purchase: charged integer
    units per (nonzero) edge index — the ledger the durability layer
    journals and the crash-equivalence tests compare exactly.
    """

    cycle: int
    num_requests: int
    accepted: int
    declined: int
    shed: int
    revenue: float
    cost: float
    profit: float
    wall_seconds: float
    batches: list[BatchRecord]
    assignment: dict[int, int | None]
    purchased: dict[int, float] = field(default_factory=dict)


class CycleEngine:
    """Admission state for one decision stream, cycle after cycle.

    ``budget`` (a :class:`~repro.resilience.budget.CycleBudget`, re-armed
    by every :meth:`start_cycle`) and ``breaker`` route decisions through
    a :class:`~repro.resilience.ladder.DegradationLadder` instead of the
    bare exact solve.  ``on_batch`` is invoked with each
    :class:`BatchRecord` the moment its decision is committed — the
    write-ahead hook of the durability layer.  ``check_cancelled`` is
    polled by every solve.
    """

    def __init__(
        self,
        topology: Topology,
        slots_per_cycle: int,
        *,
        k_paths: int = 3,
        time_limit: float | None = None,
        cache: DecisionCache | None = None,
        max_batch: int | None = None,
        lp_screen: bool = False,
        on_batch=None,
        budget: CycleBudget | None = None,
        breaker: CircuitBreaker | None = None,
        check_cancelled=None,
        dual_prices: np.ndarray | None = None,
    ) -> None:
        if slots_per_cycle < 1:
            raise ValueError(f"slots_per_cycle must be >= 1, got {slots_per_cycle}")
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 or None, got {max_batch}")
        self.topology = topology
        self.slots_per_cycle = slots_per_cycle
        self.k_paths = k_paths
        self.time_limit = time_limit
        self.cache = cache
        self.max_batch = max_batch
        self.lp_screen = lp_screen
        self.on_batch = on_batch
        self.budget = budget
        self.breaker = breaker
        self.check_cancelled = check_cancelled
        self.ladder: DegradationLadder | None = None
        if budget is not None or breaker is not None:
            self.ladder = DegradationLadder(
                budget=budget,
                breaker=breaker,
                time_limit=time_limit,
                lp_screen=lp_screen,
            )
        self.prices = np.array([topology.price(*e.key) for e in topology.edges])
        self.dual_prices = dual_prices
        self.cycle = -1
        self.start_cycle(0)

    @classmethod
    def from_config(
        cls,
        topology: Topology,
        config,
        *,
        budget: CycleBudget | None = None,
        breaker: bool = True,
        **hooks,
    ) -> "CycleEngine":
        """The engine a :class:`~repro.service.broker.BrokerConfig` describes.

        The decision knobs and the resilience knobs all come from
        ``config``: a fresh :class:`CycleBudget` when ``cycle_budget`` is
        set (unless a shared ``budget`` is passed) and a
        :class:`CircuitBreaker` when ``breaker_failures > 0`` (unless
        ``breaker=False`` — a pool worker's engine lives for one cycle,
        too short for a failure streak to mean anything).  ``hooks`` are
        the per-owner keywords: ``cache``, ``on_batch``,
        ``check_cancelled``, ``dual_prices``.
        """
        if budget is None and config.cycle_budget is not None:
            budget = CycleBudget(config.cycle_budget)
        return cls(
            topology,
            config.slots_per_cycle,
            k_paths=config.k_paths,
            time_limit=config.time_limit,
            max_batch=config.max_batch,
            lp_screen=config.lp_screen,
            budget=budget,
            breaker=(
                CircuitBreaker(
                    failure_threshold=config.breaker_failures,
                    reset_seconds=config.breaker_reset,
                )
                if breaker and config.breaker_failures > 0
                else None
            ),
            **hooks,
        )

    # ------------------------------------------------------------- lifecycle

    @property
    def dual_prices(self) -> np.ndarray | None:
        """Per-edge dual surcharge steering the decisions (``None`` = none).

        Batches are solved against ``prices + dual_prices`` while revenue,
        cost and the charged ledger stay on the true prices; cache keys
        fold a digest of the duals, so decisions made under different
        prices never alias.  An all-zero vector is no steering at all.
        """
        return self._dual_prices

    @dual_prices.setter
    def dual_prices(self, duals: np.ndarray | None) -> None:
        self._dual_prices = None
        self._dual_salt = b""
        if duals is not None:
            duals = np.asarray(duals, dtype=float)
            if np.any(duals):
                self._dual_prices = duals
                self._dual_salt = DecisionCache.price_digest(duals)

    def start_cycle(self, cycle_index: int, *, num_slots: int | None = None) -> None:
        """Open a fresh billing cycle: empty ledgers, re-armed budget.

        Cycles must advance, except that the open cycle may be opened
        again while nothing has been decided in it.  ``num_slots``
        changes the cycle length (a replayed trace may not match the
        configured one).
        """
        if cycle_index < self.cycle or (cycle_index == self.cycle and self.batches):
            raise GatewayError(
                f"cycles must advance: {cycle_index} after {self.cycle}"
            )
        self.cycle = cycle_index
        if num_slots is not None:
            self.slots_per_cycle = num_slots
        if self.budget is not None:
            self.budget.restart()
        num_edges = len(self.prices)
        self.committed = np.zeros((num_edges, self.slots_per_cycle))
        self.charged = np.zeros(num_edges)
        self.assignment: dict[int, int | None] = {}
        self.requests: list[Request] = []
        self.batches: list[BatchRecord] = []
        self.revenue = 0.0
        self.shed = 0
        self._opened_at = time.perf_counter()

    def seen(self, request_id: int) -> bool:
        """Was ``request_id`` already decided this cycle?"""
        return request_id in self.assignment

    # -------------------------------------------------------------- deciding

    def decide(
        self,
        batch: list[Request],
        *,
        window_start: int,
        window_shed: int = 0,
    ) -> list[int | None]:
        """Decide one closed window's arrivals; returns a choice per bid.

        Splits the window into ``max_batch``-bounded batches, attaches
        ``window_shed`` to the window's first record (or to a shed-only
        record when every arrival was shed), commits every acceptance
        into the cycle ledgers, and fires ``on_batch`` per record.
        """
        self.shed += window_shed
        choices: list[int | None] = []
        limit = self.max_batch or max(1, len(batch))
        for offset in range(0, len(batch), limit):
            choices.extend(
                self._decide_chunk(
                    batch[offset : offset + limit],
                    window_start,
                    window_shed if offset == 0 else 0,
                )
            )
        if window_shed and not batch:
            self._commit_record(
                BatchRecord(
                    cycle=self.cycle,
                    window_start=window_start,
                    size=0,
                    accepted=0,
                    declined=0,
                    shed=window_shed,
                    revenue=0.0,
                    incremental_cost=0.0,
                    solver_seconds=0.0,
                    cache_hit=False,
                    rung="shed",
                )
            )
        return choices

    def _decide_chunk(
        self, chunk: list[Request], window_start: int, shed: int
    ) -> list[int | None]:
        chunk_ids = [req.request_id for req in chunk]
        for request_id in chunk_ids:
            if request_id in self.assignment:
                raise GatewayError(
                    f"request_id {request_id} already decided in "
                    f"cycle {self.cycle}"
                )
        instance = SPMInstance(
            self.topology,
            RequestSet(chunk, self.slots_per_cycle),
            {
                req.request_id: self.topology.candidate_paths(
                    req.source, req.dest, k=self.k_paths
                )
                for req in chunk
            },
        )
        decision_instance = instance
        if self._dual_prices is not None:
            decision_instance = instance.reprice(self.prices + self._dual_prices)
        solver_start = time.perf_counter()
        decision = None
        hit = timed_out = suboptimal = screened = False
        rung = "cache"
        key = None
        if self.cache is not None:
            key = self.cache.make_key(
                instance, chunk_ids, self.committed, self.charged,
                salt=self._dual_salt,
            )
            decision = self.cache.get(key)
            hit = decision is not None
        if decision is None and self.ladder is not None:
            outcome = self.ladder.decide(
                decision_instance,
                chunk_ids,
                self.committed,
                self.charged,
                check_cancelled=self.check_cancelled,
            )
            decision = list(outcome.choices)
            timed_out = outcome.timed_out
            suboptimal = outcome.suboptimal
            screened = outcome.screened
            rung = outcome.rung
            if self.cache is not None and outcome.cacheable:
                self.cache.put(key, decision)
        elif decision is None:
            rung = "exact"
            try:
                outcome = solve_batch(
                    decision_instance,
                    chunk_ids,
                    self.committed,
                    self.charged,
                    time_limit=self.time_limit,
                    check_cancelled=self.check_cancelled,
                    lp_screen=self.lp_screen,
                )
            except SolverTimeoutError:
                # No incumbent within the limit: decline the batch and
                # keep serving — never crash the cycle.
                decision = [None] * len(chunk_ids)
                timed_out = True
            else:
                decision = list(outcome.choices)
                suboptimal = outcome.suboptimal
                screened = outcome.screened
                if self.cache is not None and outcome.status is SolveStatus.OPTIMAL:
                    self.cache.put(key, decision)
        solver_seconds = time.perf_counter() - solver_start

        cost_before = float(self.prices @ self.charged)
        accepted = commit_decision(
            instance, chunk_ids, decision, self.committed, self.charged
        )
        cost_after = float(self.prices @ self.charged)
        self.assignment.update(zip(chunk_ids, decision))
        self.requests.extend(chunk)
        revenue = sum(
            req.value for req, path in zip(chunk, decision) if path is not None
        )
        self.revenue += revenue
        self._commit_record(
            BatchRecord(
                cycle=self.cycle,
                window_start=window_start,
                size=len(chunk_ids),
                accepted=accepted,
                declined=len(chunk_ids) - accepted,
                shed=shed,
                revenue=revenue,
                incremental_cost=cost_after - cost_before,
                solver_seconds=solver_seconds,
                cache_hit=hit,
                timed_out=timed_out,
                suboptimal=suboptimal,
                rung=rung,
                screened=screened,
            )
        )
        return decision

    def _commit_record(self, record: BatchRecord) -> None:
        self.batches.append(record)
        if self.on_batch is not None:
            self.on_batch(record)

    # --------------------------------------------------------------- closing

    def close_cycle(self) -> CycleResult:
        """Finalize the open cycle into a :class:`CycleResult`.

        Revenue is the running sum of accepted bids and cost is ``prices ·
        charged`` — :func:`commit_decision` already ratchets ``charged``
        to the ceiling of every realized peak, so no cycle-wide instance
        is needed.
        """
        accepted = sum(1 for path in self.assignment.values() if path is not None)
        cost = float(self.prices @ self.charged)
        return CycleResult(
            cycle=self.cycle,
            num_requests=len(self.assignment) + self.shed,
            accepted=accepted,
            declined=len(self.assignment) - accepted,
            shed=self.shed,
            revenue=self.revenue,
            cost=cost,
            profit=self.revenue - cost,
            wall_seconds=time.perf_counter() - self._opened_at,
            batches=list(self.batches),
            assignment=dict(self.assignment),
            purchased={
                int(edge): float(units)
                for edge, units in enumerate(self.charged)
                if units
            },
        )
