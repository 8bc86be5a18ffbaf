"""Durability layout of the sharded broker: per-shard WALs + ledger journal.

A sharded run writes ``num_shards + 1`` journals next to the configured
WAL base path:

* ``<base>.shard<k>`` — shard ``k``'s decision trail in the standard
  broker record format (``batch`` records followed by a ``cycle`` commit
  per billing cycle), so :func:`repro.state.recover` replays it
  unchanged;
* ``<base>.ledger`` — one ``ledger`` record per committed cycle carrying
  the :class:`~repro.decomp.ledger.BandwidthLedger`'s dual prices and
  counters after that cycle.

Each journal is stamped with its own fingerprint mixing the broker's
decision fingerprint with the shard topology (shard count, partition
mode, shard id), so resuming under a different sharding refuses instead
of splicing incompatible histories — the same contract the monolithic
broker's :func:`~repro.state.recovery.config_fingerprint` enforces.

Recovery takes the *minimum* committed-prefix length across every
journal: a crash can land between shard commits of the same cycle, and
the cycle only counts once every shard **and** the ledger acknowledged
it.  Shards ahead of the minimum simply re-serve the cycle (their
journals absorb the duplicate commit record deterministically), which
keeps ``recovered prefix + deterministic re-run == uninterrupted run``
bit-identical — the §6 crash-equivalence invariant, extended across the
fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import RecoveryError
from repro.state.journal import scan_wal
from repro.state.recovery import WAL_FORMAT, digest_parts, recover

__all__ = [
    "shard_wal_path",
    "ledger_wal_path",
    "shard_fingerprint",
    "ledger_to_record",
    "RecoveredShardState",
    "recover_sharded",
]


def shard_wal_path(base: str | Path, shard_id: int) -> Path:
    """Shard ``shard_id``'s journal path under WAL base ``base``."""
    return Path(f"{base}.shard{shard_id}")


def ledger_wal_path(base: str | Path) -> Path:
    """The bandwidth-ledger journal path under WAL base ``base``."""
    return Path(f"{base}.ledger")


def shard_fingerprint(
    base_fingerprint: str,
    num_shards: int,
    mode: str,
    shard_id: int | str,
) -> str:
    """Mix the broker fingerprint with the shard topology and identity.

    ``shard_id`` is an integer for shard journals and the string
    ``"ledger"`` for the ledger journal.
    """
    parts = (
        ("base", base_fingerprint),
        ("num_shards", num_shards),
        ("mode", mode),
        ("shard", shard_id),
    )
    return digest_parts(parts)


def ledger_to_record(cycle: int, ledger) -> dict[str, Any]:
    """The per-cycle ledger commit record (duals + counters after it)."""
    return {"type": "ledger", "cycle": int(cycle), **ledger.to_record()}


@dataclass
class RecoveredShardState:
    """The fleet-wide committed prefix recovery reconstructed.

    ``shard_cycles[k]`` holds shard ``k``'s committed
    :class:`~repro.service.broker.CycleResult` prefix (possibly longer
    than ``next_cycle`` for shards whose commit outran the slowest
    journal — only the first ``next_cycle`` entries are trusted).
    ``duals`` is the ledger's dual-price vector after cycle
    ``next_cycle - 1`` (``None`` when no cycle committed), and
    ``ledger_records[i]`` the full ledger record of cycle ``i``.
    """

    shard_cycles: list[list]
    ledger_records: list[dict[str, Any]]
    next_cycle: int
    recovered_batches: int

    @property
    def duals(self) -> np.ndarray | None:
        if self.next_cycle == 0:
            return None
        return np.asarray(
            self.ledger_records[self.next_cycle - 1]["duals"], dtype=float
        )

    def last_ledger_record(self) -> dict[str, Any] | None:
        if self.next_cycle == 0:
            return None
        return self.ledger_records[self.next_cycle - 1]


def _recover_ledger(
    path: Path, fingerprint: str
) -> list[dict[str, Any]]:
    """The contiguous per-cycle ledger record prefix (cycle 0 upward)."""
    records, _, _ = scan_wal(path)
    by_cycle: dict[int, dict[str, Any]] = {}
    for record in records:
        kind = record.get("type")
        if kind == "open":
            if record.get("fingerprint") != fingerprint:
                raise RecoveryError(
                    f"ledger journal {path} was written under a different "
                    "shard configuration; refusing to resume"
                )
            if record.get("format") != WAL_FORMAT:
                raise RecoveryError(
                    f"ledger journal {path} uses WAL format "
                    f"{record.get('format')!r}; this build reads {WAL_FORMAT}"
                )
        elif kind == "ledger":
            by_cycle[int(record["cycle"])] = record
    prefix: list[dict[str, Any]] = []
    index = 0
    while index in by_cycle:
        prefix.append(by_cycle[index])
        index += 1
    return prefix


def recover_sharded(
    wal_base: str | Path,
    *,
    base_fingerprint: str,
    num_shards: int,
    mode: str,
) -> RecoveredShardState:
    """Reconstruct the fleet's committed-cycle prefix from every journal."""
    shard_cycles: list[list] = []
    for shard_id in range(num_shards):
        state = recover(
            shard_wal_path(wal_base, shard_id),
            fingerprint=shard_fingerprint(
                base_fingerprint, num_shards, mode, shard_id
            ),
        )
        shard_cycles.append(state.cycles)
    ledger_records = _recover_ledger(
        ledger_wal_path(wal_base),
        shard_fingerprint(base_fingerprint, num_shards, mode, "ledger"),
    )
    next_cycle = min(
        [len(cycles) for cycles in shard_cycles] + [len(ledger_records)]
    )
    recovered_batches = sum(
        len(result.batches)
        for cycles in shard_cycles
        for result in cycles[:next_cycle]
    )
    return RecoveredShardState(
        shard_cycles=shard_cycles,
        ledger_records=ledger_records,
        next_cycle=next_cycle,
        recovered_batches=recovered_batches,
    )
