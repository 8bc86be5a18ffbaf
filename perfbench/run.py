"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan-b4 --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``plan-b4`` — offline ``Metis.solve`` on B4, K=200, theta=30;
* ``cycles-b4`` — the classic simulated-clock ``Broker.run`` with cache
  and WAL;
* ``live-b4`` — the asyncio gateway in its own process, driven open-loop
  by a separate load process through a steady and an overload step;
* ``decomp-b4-capped`` — ``solve_decomposed`` on capped B4.

This process only orchestrates and never imports the program: the work
runs in fresh child processes (``unit.py`` or ``live.py``), each of which
reports one JSON object on its own stdout, with solver output moved to
stderr.  The last line printed
here is the result object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass plus the
tracing overhead against an untraced pass.  A failed output check makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import benchlib
from benchlib import mean, median, percentile
from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("plan-b4", "cycles-b4", "live-b4", "decomp-b4-capped")

#: A decided bid answered later than this misses the live goodput limit.
GOODPUT_LIMIT_MS = 1000.0
#: A run whose generator sent a bid later than this is invalid.
MAX_LATE_P99_MS = 50.0
#: Child processes that outlive this are killed and fail the run.
CHILD_TIMEOUT_S = 150.0

#: The end-to-end metrics, printed by every workload with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solve_s": "s",
    "profit": "USD",
    "decided_per_s": "bids/s",
    "steady_p50_ms": "ms",
    "steady_p95_ms": "ms",
}


class Children:
    """Every child process this run started, so all can be stopped."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH")
            else src
        )

    def start(self, script: str, args: list[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=self.env,
            cwd=str(ROOT),
            text=True,
        )
        self.procs.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> dict:
        """Wait for ``proc`` and return its last JSON line."""
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"child {proc.args[1:3]} timed out after {timeout}s")
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            raise RuntimeError(f"child {proc.args[1:3]} exited {proc.returncode} "
                               "without a result")
        payload = json.loads(lines[-1])
        if payload.get("crash"):
            raise RuntimeError(f"child {proc.args[1:3]} crashed:\n{payload['crash']}")
        if proc.returncode != 0:
            raise RuntimeError(f"child {proc.args[1:3]} exited {proc.returncode}")
        return payload

    def read_line(self, proc: subprocess.Popen, timeout: float) -> dict:
        """The first JSON line ``proc`` prints, within ``timeout`` seconds."""
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"child {proc.args[1:3]} did not answer in {timeout}s")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child {proc.args[1:3]} exited before answering")
        return json.loads(line)

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


# --------------------------------------------------- plan, cycles and decomp


def run_units(children, workload, seed, tmp, *, budgets, probes, trace_file=None):
    """One fresh process per entry of ``budgets`` (seconds of repetitions),
    then ``probes`` processes that only measure set-up.

    The second process first re-runs repetition 0, so the run checks that
    one repetition gives identical profit in two processes.
    """
    common = ["--workload", workload, "--seed", str(seed), "--tmp-dir", str(tmp)]
    if trace_file is not None:
        common += ["--trace-file", str(trace_file)]
    outputs = []
    next_index = 0
    for number, budget in enumerate(budgets):
        args = common + ["--budget", str(budget), "--first-index", str(next_index)]
        if number == 1:
            args += ["--repeat-index", "0"]
        output = children.finish(children.start("unit.py", args))
        outputs.append(output)
        next_index = max(u["index"] for u in output["units"]) + 1
    for _ in range(probes):
        outputs.append(children.finish(children.start("unit.py", common + ["--budget", "0"])))
    return outputs


def unit_metrics(workload, outputs) -> dict:
    units = [unit for output in outputs for unit in output["units"]]
    errors = [f"instance {u['index']}: {e}" for u in units for e in u["errors"]]
    by_index: dict[int, list] = {}
    for unit in units:
        by_index.setdefault(unit["index"], []).append(unit)
    for index, repeats in by_index.items():
        profits = {repr(u["profit"]) for u in repeats}
        if len(profits) > 1:
            errors.append(f"instance {index}: profit differs across processes {profits}")
    key = "cycle_seconds" if workload == "cycles-b4" else "seconds"
    solve = [median([u[key] for u in reps]) for reps in by_index.values()]
    if workload == "cycles-b4":
        latencies = [x for u in units for x in u["latencies_ms"]]
    else:
        # An offline planner answers every bid of an instance at once.
        latencies = [u["seconds"] * 1e3 for u in units]
    decided = sum(u["decided"] for u in units)
    metrics = {
        "setup_s": median([o["setup_s"] for o in outputs]),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outputs),
        "solve_s": mean(solve),
        "profit": mean(reps[0]["profit"] for reps in by_index.values()),
        "decided_per_s": decided / sum(u["seconds"] for u in units),
        "steady_p50_ms": percentile(latencies, 50.0),
        "steady_p95_ms": percentile(latencies, 95.0),
    }
    attempted = sum(u["attempted"] for u in units)
    timed_out = sum(u.get("timed_out_bids", 0) for u in units)
    details = {
        "parameters": outputs[0]["params"],
        "instances": len(by_index),
        "units": len(units),
        "samples": {
            "setup_s": len(outputs),
            "steady_p50_ms": len(latencies),
            "steady_p95_ms": len(latencies),
            "solve_s": len(solve),
        },
        "failed_share": (timed_out + len(errors)) / max(1, attempted),
        "repetition_seconds": [[u["index"], u["seconds"]] for u in units],
    }
    if workload == "decomp-b4-capped":
        details["rounds"] = [u["rounds"] for u in units]
        details["evicted"] = [u["evicted"] for u in units]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "details": details,
        "solve_by_index": {i: median([u["seconds"] for u in r]) for i, r in by_index.items()},
    }


# ------------------------------------------------------------------ live-b4


def live_pass(children, seed, seconds, tmp, *, probes, trace_file=None):
    """Probe set-up ``probes`` times, then one steady+overload load run."""
    setups = []
    for _ in range(probes):
        wal_dir = tempfile.mkdtemp(prefix="probe-", dir=tmp)
        probe = children.start("live.py", ["serve", "--wal-dir", wal_dir, "--probe"])
        setups.append(children.read_line(probe, 60.0)["setup_s"])
        children.finish(probe)
    wal_dir = tempfile.mkdtemp(prefix="gateway-", dir=tmp)
    args = ["serve", "--wal-dir", wal_dir]
    if trace_file is not None:
        args += ["--trace-file", str(trace_file)]
    server = children.start("live.py", args)
    hello = children.read_line(server, 60.0)
    setups.append(hello["setup_s"])
    loader = children.start(
        "live.py",
        ["drive", "--port", str(hello["listening"]), "--seed", str(seed),
         "--seconds", str(seconds)],
    )
    try:
        load = children.finish(loader)
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
    served = children.finish(server, timeout=60.0)
    return {"setups": setups, "load": load, "server": served,
            "listen_at": hello["listen_at"]}


def live_metrics(result) -> dict:
    load, server = result["load"], result["server"]
    steady, overload = load["steps"]["steady"], load["steps"]["overload"]
    errors = list(server["errors"])
    counts = {k: steady[k] + overload[k] for k in ("accepted", "rejected", "shed")}
    if sum(counts.values()) + load["errored"] + load["lost"] != load["submitted"]:
        errors.append(f"client ledger does not reconcile: {counts}, "
                      f"errored {load['errored']}, lost {load['lost']}, "
                      f"submitted {load['submitted']}")
    srv = server["counters"]
    for key in ("accepted", "rejected", "shed"):
        if counts[key] != srv[key]:
            errors.append(f"client saw {counts[key]} {key}, server booked {srv[key]}")
    if srv["submitted"] != load["submitted"]:
        errors.append(f"server received {srv['submitted']} of {load['submitted']} bids")
    late_p99 = percentile(load["late_ms"], 99.0)
    if late_p99 > MAX_LATE_P99_MS:
        errors.append(f"load generator ran {late_p99:.1f} ms late at p99: invalid run")
    if not steady["decided_ms"] or not overload["decided_ms"]:
        errors.append("a load step decided no bids")
    if errors:
        return {"errors": errors, "attempted": load["submitted"],
                "failed": len(errors) + load["errored"] + load["lost"]}

    decided_ms = steady["decided_ms"]
    # Cycles and windows the gateway's wall clock closed before the
    # overload step began hold steady-step bids only (the quiet gap is
    # longer than a cycle).
    config = server["config"]
    slot_s = config["slot_seconds"]
    cycle_s = config["slots_per_cycle"] * slot_s
    steady_end = load["start"] + overload["start_s"] - result["listen_at"]
    steady_cycles = [p for c, p in enumerate(server["cycle_profits"])
                     if (c + 1) * cycle_s <= steady_end]
    steady_windows = [sec for c, start, sec in server["windows"]
                      if c * cycle_s + (start + 1) * slot_s <= steady_end]
    # Saturated decision rate: overload-step decisions over the time from
    # the step's start to its last decision.
    span = max(overload["decided_answered"]) - overload["start_s"]
    within = sum(1 for x in overload["decided_ms"] if x <= GOODPUT_LIMIT_MS)
    metrics = {
        "setup_s": median(result["setups"]),
        "peak_rss_mb": server["peak_rss_mb"],
        "solve_s": mean(steady_windows),
        "profit": sum(steady_cycles),
        "decided_per_s": len(decided_ms) / sum(steady_windows),
        "steady_p50_ms": percentile(decided_ms, 50.0),
        "steady_p95_ms": percentile(decided_ms, 95.0),
    }
    failures = (overload["shed"] + steady["shed"] + load["errored"] + load["lost"]
                + server["timed_out_bids"])
    extra = {
        "live.shed_p99_ms": percentile(overload["shed_ms"], 99.0) if overload["shed_ms"] else 0.0,
        "live.goodput_per_s": within / overload["seconds"],
        "live.overload_decided_per_s": len(overload["decided_ms"]) / span,
        "loadgen.late_p99_ms": late_p99,
        "loadgen.connections": load["parameters"]["connections"],
        "gateway.unread_wait_p99_ms": percentile(load["unread_wait_ms"], 99.0),
        "gateway.accepted": srv["accepted"],
        "gateway.rejected": srv["rejected"],
        "gateway.shed": srv["shed"],
        "gateway.errored": srv["errored"],
    }
    details = {
        "samples": {
            "setup_s": len(result["setups"]),
            "steady_p50_ms": len(decided_ms),
            "steady_p95_ms": len(decided_ms),
            "solve_s": len(steady_windows),
            "live.shed_p99_ms": len(overload["shed_ms"]),
            "loadgen.late_p99_ms": len(load["late_ms"]),
            "gateway.unread_wait_p99_ms": len(load["unread_wait_ms"]),
        },
        "parameters": {
            **load["parameters"],
            "goodput_limit_ms": GOODPUT_LIMIT_MS,
            "max_late_p99_ms": MAX_LATE_P99_MS,
            "gateway": server["config"],
        },
        "counts": {"steady": {k: steady[k] for k in ("submitted", "accepted", "rejected", "shed")},
                   "overload": {k: overload[k] for k in ("submitted", "accepted", "rejected", "shed")}},
        "cycles": len(server["cycle_profits"]),
        "steady_cycles": len(steady_cycles),
        "steady_window_max_ms": max(steady_windows) * 1e3,
        "failed_share": failures / load["submitted"],
        "late_max_ms": max(load["late_ms"]),
    }
    return {"metrics": metrics, "attempted": load["submitted"],
            "failed": load["errored"] + load["lost"], "errors": [],
            "details": details, "extra": extra}


# --------------------------------------------------------------- per-layer


def per_layer_metrics(trace: dict, extra: dict, failed_share: float) -> dict:
    spans, notes = trace["spans"], trace["notes"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        entry = spans[name]
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.total_s"] = (entry["total_s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    metrics["core.online.solve_batch.p99_ms"] = (spans["core.online.solve_batch"]["p99_ms"], "ms")
    metrics["gateway.decide.max_ms"] = (spans["gateway.decide"]["max_ms"], "ms")

    def note(key, stat, default=0.0):
        return notes[key][stat] if key in notes else default

    def ratio(key):
        return note(key, "sum") / note(key, "count") if key in notes else 0.0

    metrics["lp.session.hit_ratio"] = (ratio("lp.session.hit"), "ratio")
    metrics["service.cache.hit_ratio"] = (ratio("service.cache.hit"), "ratio")
    metrics["state.wal_bytes"] = (note("state.wal_bytes", "sum"), "bytes")
    metrics["gateway.window_bids.p50"] = (note("gateway.window_bids", "p50"), "bids")
    metrics["decomp.rounds"] = (note("decomp.rounds", "p50"), "count")
    metrics["decomp.evicted"] = (note("decomp.evicted", "p50"), "count")
    metrics["decomp.max_violation"] = (note("decomp.max_violation", "p50"), "bw_units")
    for name in ("gateway.accepted", "gateway.rejected", "gateway.shed", "gateway.errored"):
        metrics[name] = (extra.get(name, 0), "count")
    metrics["gateway.unread_wait_p99_ms"] = (extra.get("gateway.unread_wait_p99_ms", 0.0), "ms")
    metrics["live.shed_p99_ms"] = (extra.get("live.shed_p99_ms", 0.0), "ms")
    metrics["live.goodput_per_s"] = (extra.get("live.goodput_per_s", 0.0), "bids/s")
    metrics["live.overload_decided_per_s"] = (
        extra.get("live.overload_decided_per_s", 0.0), "bids/s")
    metrics["loadgen.late_p99_ms"] = (extra.get("loadgen.late_p99_ms", 0.0), "ms")
    metrics["loadgen.connections"] = (extra.get("loadgen.connections", 0), "count")
    metrics["bench.failed_share"] = (failed_share, "ratio")
    metrics["trace.spans"] = (trace["num_spans"], "count")
    return metrics


# ---------------------------------------------------------------------- main


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(children, args, tmp, *, traced: bool) -> dict:
    trace_file = None
    if traced:
        trace_dir = ROOT / benchlib.OUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    if args.workload == "live-b4":
        result = live_pass(children, args.seed, args.seconds, tmp,
                           probes=0 if traced else 2, trace_file=trace_file)
        measured = live_metrics(result)
        measured["trace"] = result["server"].get("trace")
        return measured
    half = args.seconds / 2
    outputs = run_units(children, args.workload, args.seed, tmp,
                        budgets=[half] if traced else [half, half],
                        probes=0 if traced else 1, trace_file=trace_file)
    measured = unit_metrics(args.workload, outputs)
    measured["trace"] = outputs[0].get("trace")
    measured["extra"] = {}
    return measured


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2

    # A terminated run still stops its children (see the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp_root = ROOT / benchlib.OUT_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    children = Children()
    started = time.perf_counter()
    try:
        plain = run_workload(children, args, tmp, traced=False)
        traced = None
        if args.trace and not plain["errors"]:
            traced = run_workload(children, args, tmp, traced=True)
    except (RuntimeError, ValueError, KeyError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        plain, traced = {"errors": [str(exc)], "attempted": 1, "failed": 1}, None
    finally:
        children.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)

    errors = list(plain["errors"]) + (list(traced["errors"]) if traced else [])
    correct = not errors
    record = {"environment": environment(args), "wall_s": time.perf_counter() - started,
              "errors": errors}
    metrics = {}
    if correct and not args.trace:
        metrics = {name: {"value": plain["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        record["details"] = plain["details"]
    elif correct:
        # Live latency figures come from the untraced pass.
        extra = {**traced["extra"], **{key: value for key, value in plain["extra"].items()
                                       if key.startswith("live.")}}
        layer = per_layer_metrics(traced["trace"], extra, plain["details"]["failed_share"])
        overhead = {}
        for name in END_TO_END:
            overhead[name] = traced["metrics"][name] - plain["metrics"][name]
        if "solve_by_index" in plain:
            # Compare the repetitions both passes ran (same seeds).
            common = [i for i in traced["solve_by_index"] if i in plain["solve_by_index"]]
            untraced_s = mean(plain["solve_by_index"][i] for i in common)
            traced_s = mean(traced["solve_by_index"][i] for i in common)
        else:
            untraced_s, traced_s = plain["metrics"]["solve_s"], traced["metrics"]["solve_s"]
        layer["trace.overhead_solve_s"] = (traced_s - untraced_s, "s")
        layer["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        record["details"] = {"untraced": plain["details"], "traced": traced["details"],
                             "overhead_end_to_end": overhead}
    results = ROOT / benchlib.OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=2))

    for name, entry in metrics.items():
        print(f"{args.workload}  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    for error in errors:
        print(f"{args.workload}  CHECK FAILED: {error}")
    details = plain.get("details", {})
    print(json.dumps({"environment": record["environment"],
                      "parameters": details.get("parameters"),
                      "samples": details.get("samples")}))
    print(json.dumps({"correct": correct, "attempted": int(plain["attempted"]),
                      "failed": int(plain["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
