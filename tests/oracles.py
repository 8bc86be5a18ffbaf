"""Scalar reference loops for the Metis local search and its helpers.

The library versions of these functions (``SPMInstance.loads``,
``round_paths``, ``improve_paths``, ``prune_unprofitable``) are
array-native and screen out work that provably cannot change a decision.
The loops below are the straightforward per-request implementations they
replaced; tests and benchmarks compare against them and require equal
assignments, equal RNG state and bit-identical loads.

``prune_unprofitable`` here evaluates each marginal saving on a copy of
the path's load rows: subtracting a rate and adding it back is not a
bitwise restore (``(x - r) + r != x`` for some floats), so an in-place
evaluation would perturb the loads later requests read.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.util.rng import ensure_rng


def loads(instance: SPMInstance, assignment: dict[int, int | None]) -> np.ndarray:
    """Per-(edge, slot) bandwidth, one fancy-index add per request."""
    out = np.zeros((instance.num_edges, instance.num_slots))
    for req_id, path_idx in assignment.items():
        if path_idx is None:
            continue
        req = instance.requests[req_id]
        edge_idx = instance.path_edges[req_id][path_idx]
        out[edge_idx, req.start : req.end + 1] += req.rate
    return out


def round_paths(
    instance: SPMInstance,
    weights: dict[int, list[float]],
    rng: int | np.random.Generator | None = None,
) -> dict[int, int | None]:
    """One ``Generator.choice`` draw per request with positive weight."""
    gen = ensure_rng(rng)
    assignment: dict[int, int | None] = {}
    for req in instance.requests:
        w = np.asarray(weights[req.request_id], dtype=float)
        total = w.sum()
        if total <= 0:
            assignment[req.request_id] = 0
            continue
        assignment[req.request_id] = int(gen.choice(len(w), p=w / total))
    return assignment


def improve_paths(
    instance: SPMInstance,
    assignment: dict[int, int | None],
    *,
    max_passes: int = 5,
) -> dict[int, int | None]:
    """Exhaustive Gauss–Seidel descent: score every candidate every sweep."""
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    assignment = dict(assignment)
    loads = instance.loads(assignment)
    prices = instance.prices

    def cost_of(edge_indices: np.ndarray) -> float:
        peaks = loads[edge_indices].max(axis=1)
        return float(
            (prices[edge_indices] * np.ceil(peaks - 1e-9).clip(min=0)).sum()
        )

    for _ in range(max_passes):
        changed = False
        for req in instance.requests:
            rid = req.request_id
            current = assignment[rid]
            if current is None or instance.num_paths(rid) < 2:
                continue
            window = slice(req.start, req.end + 1)
            cur_edges = instance.path_edges[rid][current]
            rate = req.rate
            best_path = current
            best_delta = -1e-12
            for candidate in range(instance.num_paths(rid)):
                if candidate == current:
                    continue
                cand_edges = instance.path_edges[rid][candidate]
                affected = np.unique(np.concatenate([cur_edges, cand_edges]))
                cur_pos = np.searchsorted(affected, cur_edges)
                cand_pos = np.searchsorted(affected, cand_edges)
                before = cost_of(affected)
                block = loads[affected]
                block[cur_pos, window] -= rate
                block[cand_pos, window] += rate
                peaks = block.max(axis=1)
                after = float(
                    (prices[affected] * np.ceil(peaks - 1e-9).clip(min=0)).sum()
                )
                delta = after - before
                if delta < best_delta:
                    best_delta = delta
                    best_path = candidate
            if best_path != current:
                new_edges = instance.path_edges[rid][best_path]
                loads[cur_edges, window] -= rate
                loads[new_edges, window] += rate
                assignment[rid] = best_path
                changed = True
        if not changed:
            break
    return assignment


def prune_unprofitable(instance: SPMInstance, schedule: Schedule) -> Schedule:
    """Cheapest-bid-first removal, every live request scored every pass."""
    assignment = dict(schedule.assignment)
    loads = schedule.loads.copy()
    prices = instance.prices

    def marginal_saving(req, path_idx: int) -> float:
        edge_indices = instance.path_edges[req.request_id][path_idx]
        rows = loads[edge_indices]
        before = np.ceil(rows.max(axis=1) - 1e-9).clip(min=0)
        rows[:, req.start : req.end + 1] -= req.rate
        after = np.ceil(rows.max(axis=1) - 1e-9).clip(min=0)
        return float((prices[edge_indices] * (before - after)).sum())

    order = sorted(
        (
            instance.request(rid)
            for rid, path_idx in assignment.items()
            if path_idx is not None
        ),
        key=lambda r: r.value,
    )
    while True:
        removed_any = False
        for req in order:
            path_idx = assignment[req.request_id]
            if path_idx is None:
                continue
            if marginal_saving(req, path_idx) > req.value:
                window = slice(req.start, req.end + 1)
                edge_indices = instance.path_edges[req.request_id][path_idx]
                loads[edge_indices, window] -= req.rate
                assignment[req.request_id] = None
                removed_any = True
        if not removed_any:
            return Schedule(instance, assignment)
