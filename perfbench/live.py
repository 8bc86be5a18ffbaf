"""The live-b4 processes: the gateway host and the open-loop load process.

Run by ``run.py``, never by hand::

    python perfbench/live.py serve --wal-dir d [--trace-file f] [--probe]
    python perfbench/live.py drive --port P --seed S --seconds N

``serve`` starts a :class:`~repro.gateway.GatewayServer` with
``GatewayConfig`` defaults on B4 and the WAL on, prints one handshake
line (its port and set-up time) and serves until SIGTERM, which drains it
gracefully; it then prints its own ledgers and checks.  With
``--trace-file`` the layer wrappers are installed in this process, where
the decisions run.  ``--probe`` stops right after listening: it only
measures set-up.

``drive`` is the single load process.  It builds the whole schedule
from the seed before sending anything (see :func:`load_schedule`),
spreads the bids over ``nproc`` connections, sends each bid at
its scheduled time and times every answer from that scheduled time, so a
stall in the gateway is charged to every bid it delays.  It also records
how late each send was: a generator that falls behind makes the run
invalid, not slow.  Latencies stay raw samples, split by step and by
verdict (decided or shed).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import benchlib  # noqa: E402
from repro.gateway import GatewayConfig, GatewayServer  # noqa: E402
from repro.gateway.protocol import bid_to_line, decode_message  # noqa: E402
from repro.loadgen import synthesize_bids  # noqa: E402
from repro.net.topologies import b4  # noqa: E402
from repro.state import read_wal  # noqa: E402

#: The load steps as (name, bids/s, share of the run's seconds).  The
#: steady rate sits well below the gateway's saturation and the overload
#: rate far above it, so every run saturates; the quiet gap (fixed
#: seconds) lets the steady step's last windows close first, so no
#: steady bid waits behind the overload step.
STEADY = ("steady", 30.0, 0.55)
OVERLOAD = ("overload", 1000.0, 0.2)
GAP_S = 2.0
#: Seconds the load process waits for answers after its last send.
TAIL_S = 60.0
#: Seed of the reference bid set every live run sends.
REFERENCE_SEED = 2019
#: Slots per billing cycle of the bids (``GatewayConfig`` default).
SLOTS = GatewayConfig().slots_per_cycle


# ---------------------------------------------------------------------- serve


def _windows(cycles) -> list[list]:
    """``[cycle, window_start, seconds]`` per admission window that decided
    bids; seconds are the window's summed cache-key+solve time."""
    windows: dict[tuple, float] = {}
    for result in cycles:
        for batch in result.batches:
            if batch.size:
                key = (result.cycle, batch.window_start)
                windows[key] = windows.get(key, 0.0) + batch.solver_seconds
    return [[cycle, start, seconds] for (cycle, start), seconds in windows.items()]


def _check_server(server, wal_path: Path) -> list[str]:
    errors = []
    counters = server.counters
    if not counters.reconciles():
        errors.append(f"server ledger does not reconcile: {counters!r}")
    for result in server.cycles:
        if result.accepted + result.declined + result.shed != result.num_requests:
            errors.append(f"cycle {result.cycle}: accounting identity broken")
    records = read_wal(wal_path)
    cycle_records = [record for record in records if record["type"] == "cycle"]
    if len(cycle_records) != len(server.cycles):
        errors.append(
            f"WAL holds {len(cycle_records)} cycle records for "
            f"{len(server.cycles)} committed cycles"
        )
    for record, result in zip(cycle_records, server.cycles):
        for field in ("cycle", "accepted", "declined", "shed"):
            if record[field] != getattr(result, field):
                errors.append(f"WAL cycle {result.cycle}: {field} differs")
    return errors


def serve(args, out) -> None:
    tracer = None
    if args.trace_file:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    wal_path = Path(args.wal_dir) / "gateway.wal"
    config = GatewayConfig(topology="b4", wal_path=wal_path)

    async def run() -> GatewayServer:
        server = GatewayServer(config)
        await server.start()
        _, port = server.address
        benchlib.emit(
            out,
            {
                "listening": port,
                "setup_s": time.perf_counter() - _T0,
                # The wall clock's cycle 0 starts here; time.monotonic() is
                # system-wide, so the load process's send times compare to it.
                "listen_at": time.monotonic(),
            },
        )
        if args.probe:
            await server.stop()
        else:
            server.install_signal_handlers()
            await server.wait_closed()
        return server

    server = asyncio.run(run())
    timed_out = sum(
        batch.size
        for result in server.cycles
        for batch in result.batches
        if batch.timed_out
    )
    result = {
        "peak_rss_mb": benchlib.peak_rss_mb(),
        "counters": server.counters.to_dict(),
        "cycle_profits": [c.profit for c in server.cycles],
        "windows": _windows(server.cycles),
        "timed_out_bids": timed_out,
        "errors": _check_server(server, wal_path),
        "config": {
            "slots_per_cycle": config.slots_per_cycle,
            "slot_seconds": config.slot_seconds,
            "queue_capacity": config.queue_capacity,
            "max_batch": config.max_batch,
            "time_limit": config.time_limit,
            "fsync": config.fsync,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_file)
        result["trace"] = tracer.summary()
    benchlib.emit(out, result)


# ---------------------------------------------------------------------- drive


def load_schedule(seed: int, steps) -> tuple[list, np.ndarray, np.ndarray]:
    """The bids, send offsets (seconds) and step index of every send.

    ``steps`` is a sequence of ``(rate, seconds)`` sent back to back; a
    step of rate 0 is a quiet gap.  Each step sends ``round(rate *
    seconds)`` bids at sorted uniform times: a Poisson process conditioned
    on its count.  Every run sends the same reference bids (the first
    bids of :func:`synthesize_bids` at seed ``REFERENCE_SEED``, split by
    step); the seed draws the send times and the order of each step's
    bids.  Request ids follow send order.
    """
    rng = np.random.default_rng([seed, REFERENCE_SEED])
    counts = [round(rate * seconds) for rate, seconds in steps]
    pool = list(
        synthesize_bids(
            b4(), num_bids=sum(counts), num_slots=SLOTS, seed=REFERENCE_SEED
        )
    )
    bids, times, labels = [], [], []
    offset = 0.0
    for label, ((_, seconds), count) in enumerate(zip(steps, counts)):
        chunk, pool = pool[:count], pool[count:]
        for index in rng.permutation(count):
            bids.append(replace(chunk[index], request_id=len(bids)))
        times.extend(offset + np.sort(rng.uniform(0.0, seconds, size=count)))
        labels.extend([label] * count)
        offset += seconds
    return bids, np.array(times), np.array(labels, dtype=int)


async def _drive(port: int, connections: int, times, lines) -> dict:
    count = len(lines)
    streams = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        hello = decode_message(await reader.readline())
        if hello.get("type") != "hello":
            raise RuntimeError(f"expected a hello banner, got {hello!r}")
        streams.append((reader, writer))

    due = np.empty(count)
    late = np.zeros(count)
    answered = np.full(count, np.nan)
    server_ms = np.full(count, np.nan)
    verdicts: list[str | None] = [None] * count
    errored = [0]

    async def receive(reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            message = decode_message(line)
            kind = message.get("type")
            if kind == "decision":
                index = int(message["request_id"])
                answered[index] = time.monotonic()
                server_ms[index] = float(message["latency_ms"])
                verdicts[index] = message["decision"]
            elif kind == "error":
                errored[0] += 1
            elif kind == "bye":
                return

    receivers = [asyncio.create_task(receive(r)) for r, _ in streams]
    start = time.monotonic() + 0.2
    for index in range(count):
        due[index] = start + times[index]
        delay = due[index] - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = streams[index % connections][1]
        late[index] = time.monotonic() - due[index]
        writer.write(lines[index])
    for _, writer in streams:
        await writer.drain()
        writer.write_eof()
    deadline = start + times[-1] + TAIL_S
    done, pending = await asyncio.wait(
        receivers, timeout=max(0.0, deadline - time.monotonic())
    )
    for task in pending:
        task.cancel()
    await asyncio.gather(*receivers, return_exceptions=True)
    for task in done:
        task.result()
    for _, writer in streams:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return {
        "start": start,
        "due": due,
        "late": late,
        "answered": answered,
        "server_ms": server_ms,
        "verdicts": verdicts,
        "errored": errored[0],
    }


def drive(args, out) -> None:
    steps = [
        (STEADY[1], round(STEADY[2] * args.seconds, 3)),
        (0.0, GAP_S),
        (OVERLOAD[1], round(OVERLOAD[2] * args.seconds, 3)),
    ]
    measured = {0: STEADY[0], 2: OVERLOAD[0]}
    connections = os.cpu_count() or 1
    bids, times, labels = load_schedule(args.seed, steps)
    lines = [bid_to_line(bid) for bid in bids]
    raw = asyncio.run(_drive(args.port, connections, times, lines))

    latency_ms = (raw["answered"] - raw["due"]) * 1e3
    per_step = {}
    for label, name in measured.items():
        members = np.flatnonzero(labels == label)
        verdicts = [raw["verdicts"][i] for i in members]
        decided = [i for i in members if raw["verdicts"][i] in ("accept", "reject")]
        shed = [i for i in members if raw["verdicts"][i] == "shed"]
        per_step[name] = {
            "submitted": int(len(members)),
            "accepted": verdicts.count("accept"),
            "rejected": verdicts.count("reject"),
            "shed": verdicts.count("shed"),
            "unanswered": verdicts.count(None),
            "decided_ms": [float(latency_ms[i]) for i in decided],
            "shed_ms": [float(latency_ms[i]) for i in shed],
            "decided_answered": [float(raw["answered"][i] - raw["start"]) for i in decided],
            "start_s": float(sum(s for _, s in steps[:label])),
            "seconds": float(steps[label][1]),
        }
    answered = ~np.isnan(raw["answered"])
    unread = latency_ms[answered] - raw["server_ms"][answered]
    unanswered = int((~answered).sum())
    # Each error answer consumed one bid whose id it does not name.
    lost = max(0, unanswered - raw["errored"])
    benchlib.emit(
        out,
        {
            "submitted": len(lines),
            "errored": raw["errored"],
            "lost": lost,
            "steps": per_step,
            "late_ms": [float(x) for x in raw["late"] * 1e3],
            "unread_wait_ms": [float(x) for x in unread],
            "parameters": {
                "steps": {"steady": steps[0], "gap": steps[1], "overload": steps[2]},
                "connections": connections,
                "reference_seed": REFERENCE_SEED,
            },
            "start": raw["start"],
        },
    )


def main() -> None:
    out = benchlib.claim_stdout()
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="role", required=True)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--wal-dir", required=True)
    p_serve.add_argument("--trace-file", default=None)
    p_serve.add_argument("--probe", action="store_true")
    p_drive = sub.add_parser("drive")
    p_drive.add_argument("--port", type=int, required=True)
    p_drive.add_argument("--seed", type=int, required=True)
    p_drive.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    try:
        serve(args, out) if args.role == "serve" else drive(args, out)
    except Exception:
        benchlib.emit(out, {"crash": traceback.format_exc()})
        raise


if __name__ == "__main__":
    main()
