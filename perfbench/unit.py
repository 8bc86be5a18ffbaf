"""One benchmark process for the plan, cycles and decomp workloads.

Run by ``run.py``, never by hand::

    python perfbench/unit.py --workload plan-b4 --seed 1 --budget 8 \
        --first-index 0 [--repeat-index 0] [--trace-file f.jsonl] --tmp-dir d

The process times its own set-up (imports, topology construction and
the workload's reference bids), then runs repetitions until ``--budget``
seconds have passed (``--budget 0`` measures set-up only).  Repetition
``j`` of a run uses ``instance_seed(seed, j)`` and fresh objects: a new
topology, ``SPMInstance`` and ``Metis``/``Broker``, and a new temporary
WAL directory, so no resolve session, improve memo or decision cache
carries over.  ``--repeat-index`` re-runs a repetition an earlier process
already ran, which is how ``run.py`` checks that profit is identical
across processes.

The result is one JSON object on the original stdout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import benchlib  # noqa: E402
from repro.core.instance import SPMInstance  # noqa: E402
from repro.core.metis import Metis  # noqa: E402
from repro.decomp import solver as decomp_solver  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentConfig,
    make_instance,
    make_topology,
)
from repro.service.broker import Broker, BrokerConfig  # noqa: E402
from repro.service.ingest import GeneratorSource, PushSource  # noqa: E402
from repro.sim.validator import validate_schedule  # noqa: E402
from repro.state import read_wal  # noqa: E402
from repro.workload.generator import WorkloadConfig, generate_workload  # noqa: E402
from repro.workload.request import RequestSet  # noqa: E402

#: Workload parameters, recorded with every result.
PARAMS = {
    # The EXPERIMENTS.md settings and bids: B4, K=200 over 12 monthly
    # slots (master seed 2019), theta=30 alternation rounds, 5 MAA
    # roundings.  The run seed drives Metis' randomized rounding.
    "plan-b4": {
        "topology": "b4",
        "num_requests": 200,
        "bids_seed": 2019,
        "theta": 30,
        "maa_rounds": 5,
    },
    # The default `repro serve` path: day cycles of 288 five-minute slots,
    # fresh bids from the run seed every cycle, decision cache and WAL
    # (fsync=batch) on.
    "cycles-b4": {
        "topology": "b4",
        "num_cycles": 2,
        "slots_per_cycle": 288,
        "requests_per_cycle": 600,
        "cache_size": 1024,
        "fsync": "batch",
    },
    # Capped B4 (one unit per link) so the price rounds and the eviction
    # pass both run: 4 hash shards, at most 4 rounds, K=64 over 8 slots.
    # The decomposition makes no random choices, so the run seed permutes
    # the order and ids of the reference bids, which samples the MILP
    # solver's run-to-run variability on one instance.
    "decomp-b4-capped": {
        "topology": "b4",
        "capacity": 1,
        "num_requests": 64,
        "num_slots": 8,
        "bids_seed": 7,
        "k_paths": 3,
        "num_shards": 4,
        "max_rounds": 4,
    },
}

_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _check_schedule(schedule, profit: float, capacities=None) -> list[str]:
    """Independent validation, plus the reported profit against it."""
    report = validate_schedule(schedule, capacities=capacities)
    errors = list(report.errors)
    if not _close(report.profit, profit):
        errors.append(f"validated profit {report.profit!r} != reported {profit!r}")
    return errors


class Plan:
    def __init__(self) -> None:
        self.p = PARAMS["plan-b4"]
        self.config = ExperimentConfig(
            topology=self.p["topology"],
            request_counts=(self.p["num_requests"],),
            seed=self.p["bids_seed"],
            theta=self.p["theta"],
            maa_rounds=self.p["maa_rounds"],
        )
        self.requests = make_instance(self.config, self.p["num_requests"]).requests

    def run(self, rep_seed: int, tmp_dir: str) -> dict:
        config = self.config
        topology = make_topology(config.topology)
        start = time.perf_counter()
        instance = SPMInstance.build(topology, self.requests, k_paths=config.k_paths)
        outcome = Metis(theta=config.theta, maa_rounds=config.maa_rounds).solve(
            instance, rng=rep_seed
        )
        seconds = time.perf_counter() - start
        best = outcome.best
        if best.schedule is not None:
            errors = _check_schedule(best.schedule, best.profit)
        else:  # declining every bid is a valid decision worth exactly 0
            errors = [] if best.profit == 0.0 else [f"no schedule, profit {best.profit!r}"]
        return {
            "seconds": seconds,
            "profit": best.profit,
            "decided": instance.num_requests,
            "attempted": instance.num_requests,
            "errors": errors,
        }


class Cycles:
    def __init__(self) -> None:
        self.p = PARAMS["cycles-b4"]
        self.topology = make_topology(self.p["topology"])

    def run(self, rep_seed: int, tmp_dir: str) -> dict:
        p = self.p
        defaults = BrokerConfig()
        # The bids are generated before the clock starts; the broker only
        # receives them through a push source.
        generator = GeneratorSource(
            self.topology,
            WorkloadConfig(
                num_requests=p["requests_per_cycle"],
                num_slots=p["slots_per_cycle"],
                max_duration=defaults.max_duration,
                value_model=defaults.value_model,
            ),
            seed=rep_seed,
        )
        source = PushSource(p["slots_per_cycle"])
        for cycle in range(p["num_cycles"]):
            source.feed(cycle, generator.cycle(cycle))
        wal_path = f"{tmp_dir}/broker.wal"
        config = BrokerConfig(
            topology=p["topology"],
            num_cycles=p["num_cycles"],
            slots_per_cycle=p["slots_per_cycle"],
            requests_per_cycle=p["requests_per_cycle"],
            seed=rep_seed,
            cache_size=p["cache_size"],
            wal_path=wal_path,
            fsync=p["fsync"],
        )
        start = time.perf_counter()
        report = Broker(config, source=source).run()
        seconds = time.perf_counter() - start

        errors = []
        latencies_ms = []
        decided = 0
        attempted = 0
        timed_out_bids = 0
        for result in report.cycles:
            attempted += result.num_requests
            decided += result.accepted + result.declined
            if result.accepted + result.declined + result.shed != result.num_requests:
                errors.append(
                    f"cycle {result.cycle}: accepted {result.accepted} + declined "
                    f"{result.declined} + shed {result.shed} != "
                    f"{result.num_requests} requests"
                )
            for batch in result.batches:
                # Each bid of a batch waits for that batch's decision.
                latencies_ms += [batch.solver_seconds * 1e3] * batch.size
                if batch.timed_out:
                    timed_out_bids += batch.size
        if len(report.cycles) != p["num_cycles"]:
            errors.append(f"{len(report.cycles)} cycles served, not {p['num_cycles']}")
        records = read_wal(wal_path)
        kinds = [record["type"] for record in records]
        cycle_records = [record for record in records if record["type"] == "cycle"]
        if kinds.count("open") != 1:
            errors.append(f"WAL holds {kinds.count('open')} open records")
        if kinds.count("batch") != sum(len(c.batches) for c in report.cycles):
            errors.append("WAL batch records do not match the served batches")
        if len(cycle_records) != len(report.cycles):
            errors.append("WAL cycle records do not match the served cycles")
        for record, result in zip(cycle_records, report.cycles):
            for field in ("cycle", "accepted", "declined", "shed", "num_requests"):
                if record[field] != getattr(result, field):
                    errors.append(f"WAL cycle {result.cycle}: {field} differs")
            if not _close(record["profit"], result.profit):
                errors.append(f"WAL cycle {result.cycle}: profit differs")
        return {
            "seconds": seconds,
            "cycle_seconds": seconds / max(1, len(report.cycles)),
            "profit": report.profit / max(1, len(report.cycles)),
            "decided": decided,
            "attempted": attempted,
            "timed_out_bids": timed_out_bids,
            "latencies_ms": latencies_ms,
            "errors": errors,
        }


class Decomp:
    def __init__(self) -> None:
        self.p = PARAMS["decomp-b4-capped"]
        self.requests = list(
            generate_workload(
                self._topology(),
                WorkloadConfig(
                    num_requests=self.p["num_requests"], num_slots=self.p["num_slots"]
                ),
                rng=self.p["bids_seed"],
            )
        )

    def _topology(self):
        topology = make_topology(self.p["topology"])
        topology.set_uniform_capacity(self.p["capacity"])
        return topology

    def run(self, rep_seed: int, tmp_dir: str) -> dict:
        p = self.p
        order = np.random.default_rng(rep_seed).permutation(len(self.requests))
        requests = RequestSet(
            [replace(self.requests[j], request_id=i) for i, j in enumerate(order)],
            p["num_slots"],
        )
        topology = self._topology()
        start = time.perf_counter()
        instance = SPMInstance.build(topology, requests, k_paths=p["k_paths"])
        outcome = decomp_solver.solve_decomposed(
            instance,
            decomp_solver.DecompConfig(
                num_shards=p["num_shards"], max_rounds=p["max_rounds"]
            ),
        )
        seconds = time.perf_counter() - start
        errors = _check_schedule(
            outcome.schedule, outcome.profit, capacities=topology.capacities()
        )
        return {
            "seconds": seconds,
            "profit": outcome.profit,
            "decided": instance.num_requests,
            "attempted": instance.num_requests,
            "rounds": outcome.rounds,
            "evicted": len(outcome.evicted),
            "errors": errors,
        }


WORKLOADS = {"plan-b4": Plan, "cycles-b4": Cycles, "decomp-b4-capped": Decomp}


def main() -> None:
    out = benchlib.claim_stdout()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--first-index", type=int, default=0)
    parser.add_argument("--repeat-index", type=int, default=None)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--tmp-dir", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    setup_s = time.perf_counter() - _T0
    tracer = None
    if args.trace_file:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    repeats = [] if args.repeat_index is None else [args.repeat_index]
    indices = itertools.chain(repeats, itertools.count(args.first_index))
    units = []
    crash = None
    started = time.perf_counter()
    while args.budget > 0:
        index = next(indices)
        unit_dir = tempfile.mkdtemp(prefix="unit-", dir=args.tmp_dir)
        try:
            unit = workload.run(benchlib.instance_seed(args.seed, index), unit_dir)
        except Exception:  # reported as a failed check, never as a number
            crash = traceback.format_exc()
            break
        finally:
            shutil.rmtree(unit_dir, ignore_errors=True)
        unit["index"] = index
        units.append(unit)
        # Start another repetition only if it should end within the budget.
        elapsed = time.perf_counter() - started
        if len(units) >= len(repeats) and elapsed * (len(units) + 1) / len(units) > args.budget:
            break

    result = {
        "params": PARAMS[args.workload],
        "setup_s": setup_s,
        "peak_rss_mb": benchlib.peak_rss_mb(),
        "units": units,
        "crash": crash,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_file)
        result["trace"] = tracer.summary()
    benchlib.emit(out, result)


if __name__ == "__main__":
    main()
