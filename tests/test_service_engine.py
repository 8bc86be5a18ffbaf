"""Differential test: the simulated-clock broker vs the wall-clock engine.

The same seeded trace is served twice: once by ``Broker.run`` (a
``SimClock`` walked by ``run_cycle``) and once by a ``CycleEngine`` fed
the way the live gateway feeds it — a ``WallClock`` tick stream on an
injected monotonic clock, each closed window's queue drained into
``decide``.  Every decision, every batch record (but its wall time) and
every purchase must agree, and the profit must be equal.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.gateway.wallclock import WallClock
from repro.net.topologies import b4, sub_b4
from repro.resilience import CircuitBreaker, CycleBudget
from repro.service.broker import Broker, BrokerConfig, run_cycle
from repro.service.cache import DecisionCache
from repro.service.engine import CycleEngine
from repro.service.ingest import AdmissionQueue, TraceSource
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.value_models import HeavyTailValueModel

_SLOTS = 12
_CYCLES = 2


class FakeTime:
    """A monotonic source advanced to each window deadline by hand."""

    def __init__(self, value: float = 100.0) -> None:
        self.value = value

    def __call__(self) -> float:
        return self.value


def _trace(topology):
    # Low heavy-tailed bids leave a mix of profitable and hopeless
    # batches, so the LP screen has something to certify.
    return generate_workload(
        topology,
        WorkloadConfig(
            num_requests=30,
            num_slots=_SLOTS,
            max_duration=4,
            value_model=HeavyTailValueModel(scale=0.3),
        ),
        rng=8,
    )


def _classic(config: BrokerConfig, trace, duals):
    """The simulated-clock side: ``Broker.run``, or ``run_cycle`` under duals."""
    if duals is None:
        return Broker(config, source=TraceSource(trace)).run().cycles
    # A broker has no dual-price input; drive run_cycle with the same
    # knobs, one cache across cycles as the broker keeps.
    cache = DecisionCache(config.cache_size)
    breaker = (
        CircuitBreaker(failure_threshold=config.breaker_failures)
        if config.breaker_failures
        else None
    )
    return [
        run_cycle(
            config.topology,
            trace,
            cycle_index=index,
            window=config.window,
            queue_capacity=config.queue_capacity,
            k_paths=config.k_paths,
            time_limit=config.time_limit,
            cache=cache,
            max_batch=config.max_batch,
            lp_screen=config.lp_screen,
            dual_prices=duals,
            budget=(
                CycleBudget(config.cycle_budget) if config.cycle_budget else None
            ),
            breaker=breaker,
        )
        for index in range(config.num_cycles)
    ]


def _live(config: BrokerConfig, trace, duals):
    """The wall-clock side: the gateway's push loop over a ``WallClock``."""
    now = FakeTime()
    clock = WallClock(
        _SLOTS,
        window=config.window,
        num_cycles=config.num_cycles,
        slot_seconds=0.5,
        now=now,
    )
    clock.start()
    engine = CycleEngine.from_config(
        config.topology,
        config,
        cache=DecisionCache(config.cache_size),
        dual_prices=duals,
    )
    by_start: dict[int, list] = {}
    for req in trace:
        by_start.setdefault(req.start, []).append(req)
    results = []
    for cycle in clock.cycles():
        if cycle:
            engine.start_cycle(cycle)
        queue = AdmissionQueue(config.queue_capacity)
        shed_ids = []
        for tick in clock.windows(cycle):
            window_shed = 0
            for slot in tick.slots:
                for req in by_start.get(slot, ()):
                    if not queue.offer(req):
                        shed_ids.append(req.request_id)
                        window_shed += 1
            now.value = clock.deadline(tick)
            assert clock.remaining(clock.deadline(tick)) == 0.0
            engine.decide(
                queue.drain(),
                window_start=tick.window_start,
                window_shed=window_shed,
            )
        result = engine.close_cycle()
        # The gateway never lists shed bids as decided; the broker's
        # ledger lists them as declined-by-shedding (None).
        assert not any(engine.seen(rid) for rid in shed_ids)
        result.assignment.update(dict.fromkeys(shed_ids))
        results.append(result)
    return results


def _records(results):
    return [
        [{**asdict(record), "solver_seconds": None} for record in r.batches]
        for r in results
    ]


def _log(results):
    return [
        (r.cycle, rid, path)
        for r in results
        for rid, path in sorted(r.assignment.items())
    ]


_RESILIENCE = {
    "exact": {},
    "budget": {"cycle_budget": 600.0},
    "breaker": {"breaker_failures": 2},
}


def _config(topology, *, lp_screen, resilience, window=2, **extra) -> BrokerConfig:
    return BrokerConfig(
        topology=topology,
        num_cycles=_CYCLES,
        slots_per_cycle=_SLOTS,
        window=window,
        k_paths=3,
        time_limit=None,
        lp_screen=lp_screen,
        **_RESILIENCE[resilience],
        **extra,
    )


def _assert_same(classic, live):
    assert _log(live) == _log(classic)
    assert _records(live) == _records(classic)
    assert [r.purchased for r in live] == [r.purchased for r in classic]
    assert [r.profit for r in live] == [r.profit for r in classic]
    for field in ("num_requests", "accepted", "declined", "shed", "revenue", "cost"):
        assert [getattr(r, field) for r in live] == [
            getattr(r, field) for r in classic
        ]


@pytest.mark.parametrize("dual", ["zero", "steered"])
@pytest.mark.parametrize("resilience", sorted(_RESILIENCE))
@pytest.mark.parametrize("lp_screen", [False, True], ids=["exact", "lp_screen"])
def test_simclock_broker_matches_wallclock_engine(lp_screen, resilience, dual):
    topology = sub_b4()
    trace = _trace(topology)
    duals = None
    if dual == "steered":
        duals = np.zeros(topology.num_edges)
        duals[::3] = 0.4
    config = _config(topology, lp_screen=lp_screen, resilience=resilience)
    classic = _classic(config, trace, duals)
    live = _live(config, trace, duals)
    _assert_same(classic, live)
    records = [record for r in classic for record in r.batches]
    assert any(record.cache_hit for record in records)
    # The screen only runs when asked, and it records what it certified.
    assert any(record.screened for record in records) == lp_screen
    if resilience != "exact":
        assert {record.rung for record in records} <= {"exact", "cache"}


def test_shedding_and_split_windows_match():
    topology = sub_b4()
    trace = _trace(topology)
    config = _config(
        topology,
        lp_screen=False,
        resilience="exact",
        window=4,
        queue_capacity=5,
        max_batch=2,
    )
    classic = _classic(config, trace, None)
    live = _live(config, trace, None)
    _assert_same(classic, live)
    records = [record for r in classic for record in r.batches]
    assert sum(r.shed for r in classic) > 0
    assert all(record.size <= 2 for record in records)
    # A split window carries its shed count on its first record only.
    assert any(record.shed == 0 and record.size for record in records)


def test_gateway_engine_config_keeps_the_wal_fingerprint():
    # broker_config() also carries the resilience and cache levers the
    # engine factory reads; none of them may enter the fingerprint, so
    # journals written before they rode along still resume.
    from repro.gateway import GatewayConfig
    from repro.state import config_fingerprint

    assert config_fingerprint(BrokerConfig()) == "144a03068edd63c3c453913a960c4a97"
    assert (
        config_fingerprint(GatewayConfig().broker_config())
        == "e8ac1337eec747db07e2ac58cc8f6670"
    )
    levers = GatewayConfig(cycle_budget=2.0, breaker_failures=2, cache_size=0)
    assert config_fingerprint(levers.broker_config()) == config_fingerprint(
        GatewayConfig().broker_config()
    )
    engine = CycleEngine.from_config(b4(), levers.broker_config())
    assert engine.budget is not None and engine.breaker is not None


@pytest.mark.parametrize(
    "shards,base,live",
    [
        (
            1,
            "e8ac1337eec747db07e2ac58cc8f6670",
            "2f9d09764f135845e7dcf8cd4cf27bf9",
        ),
        (
            3,
            "e8ac1337eec747db07e2ac58cc8f6670",
            "79fd3fdb24e57ec3917416b8dfaa5722",
        ),
    ],
)
def test_sharded_gateway_config_keeps_the_wal_fingerprints(shards, base, live):
    # A sharded gateway's broker_config() is a ShardConfig; the base
    # fingerprint reads only broker fields, so gateway journals written
    # before the sharded engine took its config still resume.
    from repro.gateway import GatewayConfig
    from repro.shard import ShardConfig
    from repro.shard.recovery import shard_fingerprint
    from repro.state import config_fingerprint

    config = GatewayConfig(shards=shards)
    engine_config = config.broker_config()
    assert isinstance(engine_config, ShardConfig) == (shards > 1)
    assert config_fingerprint(engine_config) == base
    assert shard_fingerprint(base, shards, config.partition, "live") == live
    assert (
        config_fingerprint(ShardConfig(shards=shards))
        == "144a03068edd63c3c453913a960c4a97"
    )
