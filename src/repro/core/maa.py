"""MAA — the Multistage Approximation Algorithm for RL-SPM (paper §III).

Given a set of *accepted* requests, MAA minimizes the bandwidth cost in
three stages (Algorithm 1):

1. **Relaxation** — solve the LP relaxation of RL-SPM (``x in [0,1]``,
   continuous ``c``), obtaining fractional path weights ``x_hat`` and
   fractional bandwidth ``c_hat``.
2. **Randomized rounding** — select exactly one path per request, path ``j``
   with probability ``x_hat[i][j]`` (the relaxation satisfies
   ``sum_j x_hat[i][j] = 1``).  This gives the
   ``O(log|E| / log log|E|)``-approximation for the unsplittable-flow
   subproblem P1 w.h.p. (Raghavan-Thompson).
3. **Ceiling** — charge each edge the ceiling of its peak load,
   ``c_e = ceil(max_t load_{e,t})``, the ``(alpha+1)/alpha``-relaxed step
   for subproblem P2 (Theorem 2, with ``alpha = min positive c_hat``).

Theorem 4 combines the two ratios multiplicatively (Theorem 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fastform import FormulationCompiler
from repro.core.formulations import build_rl_spm, fractional_x
from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.exceptions import InfeasibleError, SolverError
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw
from repro.util.rng import ensure_rng

__all__ = [
    "MAAResult",
    "solve_maa",
    "round_paths",
    "improve_paths",
    "ceiling_drops",
]

#: Fractional bandwidth below this is treated as zero when computing alpha.
_ALPHA_TOL = 1e-9


@dataclass
class MAAResult:
    """Outcome of one MAA run.

    ``fractional_cost`` is the LP-relaxation optimum (the lower bound both
    approximation ratios are stated against); ``alpha`` is the minimum
    positive fractional bandwidth, the parameter of Theorem 2.
    """

    schedule: Schedule
    fractional_cost: float
    fractional_weights: dict[int, list[float]]
    alpha: float

    @property
    def cost(self) -> float:
        """The rounded, integer-charged bandwidth cost."""
        return self.schedule.cost

    @property
    def ceiling_ratio_bound(self) -> float:
        """Theorem 2's ``(alpha+1)/alpha`` bound (inf when alpha is 0)."""
        if self.alpha <= 0:
            return float("inf")
        return (self.alpha + 1.0) / self.alpha


def round_paths(
    instance: SPMInstance,
    weights: dict[int, list[float]],
    rng: int | np.random.Generator | None = None,
) -> dict[int, int | None]:
    """The randomized-rounding stage: one path per request, ~ ``weights``.

    Weights per request are normalized before sampling; a request whose
    weights sum to zero (possible only for degenerate inputs) falls back to
    its cheapest path, preserving RL-SPM's "every request satisfied"
    invariant.

    The draws are exactly ``gen.choice(len(w), p=w / w.sum())`` per
    request with a positive total, in request order, done for all of them
    at once: one ``gen.random(n)`` (the same stream as ``n`` scalar
    ``choice`` draws) against row-wise normalized cumulative weights,
    counting ``cdf <= u`` as ``choice``'s ``side='right'`` search does.  A
    row ``choice`` would reject (a NaN or negative probability) is handed
    to ``choice`` itself at its turn, so it raises the same ``ValueError``
    with the generator advanced exactly as far.
    """
    gen = ensure_rng(rng)
    rids = instance.requests.request_ids
    n = len(rids)
    by_length: dict[int, list[int]] = {}
    for pos, rid in enumerate(rids):
        by_length.setdefault(len(weights[rid]), []).append(pos)
    clean = np.zeros(n, dtype=bool)
    rejected = np.zeros(n, dtype=bool)
    cdfs = []
    for length, positions in by_length.items():
        w = np.array([weights[rids[pos]] for pos in positions], dtype=float)
        w = w.reshape(len(positions), length)
        total = w.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = w / total[:, None]
            cdf = np.cumsum(p, axis=1)
            cdf = cdf / cdf[:, -1:]
        positions = np.asarray(positions)
        drawn = ~(total <= 0)  # a NaN total reaches choice, as in a loop
        valid = (p >= 0).all(axis=1)
        clean[positions] = drawn & valid
        rejected[positions] = drawn & ~valid
        cdfs.append((positions, cdf))

    u = np.zeros(n)
    picks = np.zeros(n, dtype=np.int64)
    start = 0
    for stop in np.flatnonzero(rejected).tolist() + [n]:
        segment = np.flatnonzero(clean[start:stop]) + start
        u[segment] = gen.random(segment.size)
        if stop < n:
            w = np.asarray(weights[rids[stop]], dtype=float)
            picks[stop] = gen.choice(len(w), p=w / w.sum())
        start = stop + 1
    for positions, cdf in cdfs:
        rows = clean[positions]
        picked = positions[rows]
        picks[picked] = (cdf[rows] <= u[picked, None]).sum(axis=1)
    return dict(zip(rids, picks.tolist()))


def solve_maa(
    instance: SPMInstance,
    *,
    rng: int | np.random.Generator | None = None,
    time_limit: float | None = None,
    accept_feasible: bool = False,
    fast_path: bool = True,
    warm_start: bool = False,
) -> MAAResult:
    """Run Algorithm 1 (MAA) on ``instance``.

    ``time_limit`` (seconds) bounds the RL-SPM relaxation solve, so
    serving-path callers can guarantee a decision deadline.  By default a
    limit-hit relaxation raises even when an incumbent exists (the
    approximation ratios are stated against the true LP optimum);
    ``accept_feasible=True`` rounds the incumbent weights instead —
    explicitly trading the certificate for availability.

    With ``fast_path`` (default) the RL-SPM relaxation is assembled by the
    instance's cached :class:`~repro.core.fastform.FormulationCompiler`
    and the weights / fractional bandwidth are read straight from the raw
    solution columns — bitwise identical to the expression-layer path
    (``fast_path=False``), which is kept as the equivalence oracle.

    ``warm_start`` (fast path only) routes the relaxation solve through
    the formulation's :class:`~repro.lp.warmstart.ResolveSession`: the
    Metis inner loop re-solves the *identical* RL-SPM relaxation
    ``maa_rounds`` times per round (only the rounding rng differs), so
    every repeat after the first is answered from the session's
    exact-repeat cache — with bitwise-identical solutions by the session's
    certification rules.  It governs only that LP session; the rounding
    and everything after it run the same way either way.

    Raises :class:`~repro.exceptions.InfeasibleError` if the relaxation is
    infeasible (cannot happen on strongly connected topologies with
    unlimited purchasable bandwidth) and :class:`SolverError` on solver
    failure.
    """
    if fast_path:
        formulation = instance.formulation_compiler().compile_rl_spm(
            instance, integral=False
        )
        if warm_start and formulation.session is not None:
            solution = formulation.session.solve(
                formulation.compiled, time_limit=time_limit
            )
        else:
            solution = solve_compiled_raw(
                formulation.compiled, time_limit=time_limit
            )
    else:
        problem = build_rl_spm(instance, integral=False)
        solution = problem.model.solve(time_limit=time_limit)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("RL-SPM relaxation is infeasible")
    if not solution.is_optimal and not (
        accept_feasible and solution.status is SolveStatus.FEASIBLE
    ):
        raise SolverError(f"RL-SPM relaxation failed: {solution.status}")

    if fast_path:
        weights = FormulationCompiler.weights_from_raw(formulation, solution.x)
        c_hat = np.array(solution.x[formulation.num_x :])
    else:
        weights = fractional_x(problem, solution)
        c_hat = np.array(
            [
                solution.values[problem.c_vars[idx]]
                for idx in range(instance.num_edges)
            ]
        )
    positive = c_hat[c_hat > _ALPHA_TOL]
    alpha = float(positive.min()) if positive.size else 0.0

    assignment = round_paths(instance, weights, rng)
    schedule = Schedule(instance, assignment)
    return MAAResult(
        schedule=schedule,
        fractional_cost=float(solution.objective),
        fractional_weights=weights,
        alpha=alpha,
    )


def ceiling_drops(
    instance: SPMInstance,
    loads: np.ndarray,
    requests: list,
    paths: list[int],
) -> np.ndarray:
    """Whether taking each request off its path lowers a charged ceiling.

    Entry ``i`` is true iff subtracting ``requests[i].rate`` inside its
    window from the ``loads`` rows of path ``paths[i]`` lowers
    ``ceil(max_t load - 1e-9)`` (clipped at zero) on at least one edge.
    Every request is judged alone against ``loads``, with the same
    elementwise operations the scalar scorers use, so a false entry is
    exact: that request's removal changes no charged unit.

    This is the screen of the local search.  A path swap whose removal
    half lowers no ceiling cannot lower the cost: edges only on the
    candidate path only gain load, a shared edge ends at
    ``(x - r) + r >= x - r``, and with non-negative prices the
    price-times-ceiling sum over the same edges in the same order is
    monotone in floating point.  A pruning removal that lowers no ceiling
    saves exactly 0, never more than a bid (``value >= 0``).
    """
    if not requests:
        return np.zeros(0, dtype=bool)
    edges = [
        instance.path_edges[req.request_id][path]
        for req, path in zip(requests, paths)
    ]
    counts = [e.size for e in edges]
    rows = loads[np.concatenate(edges)]
    owner = np.repeat(np.arange(len(requests)), counts)
    start = np.repeat([req.start for req in requests], counts)
    end = np.repeat([req.end for req in requests], counts)
    rate = np.repeat([req.rate for req in requests], counts)
    slots = np.arange(rows.shape[1])
    inside = (slots >= start[:, None]) & (slots <= end[:, None])
    removed = np.where(inside, rows - rate[:, None], rows)
    before = np.ceil(rows.max(axis=1) - 1e-9).clip(min=0)
    after = np.ceil(removed.max(axis=1) - 1e-9).clip(min=0)
    return np.bincount(owner, weights=after < before, minlength=len(requests)) > 0


def improve_paths(
    instance: SPMInstance,
    assignment: dict[int, int | None],
    *,
    max_passes: int = 5,
) -> dict[int, int | None]:
    """Greedy path-reassignment descent on the charged-bandwidth cost.

    Not part of Algorithm 1 — a practical post-pass used inside Metis: for
    each assigned request in turn, try each alternate candidate path and
    keep the move iff the total integer-charged cost strictly decreases.
    Loops until a fixpoint or ``max_passes`` full sweeps.  Returns a new
    assignment; the input is not mutated.

    Candidate moves are evaluated *without mutating* the shared load
    matrix: the affected rows are copied, the move applied to the copy in
    the same operation order a real move uses, and the charged costs
    compared.  Only an accepted move touches ``loads``.

    Only requests whose removal lowers some charged ceiling are scored
    (:func:`ceiling_drops`; any other swap provably cannot lower the cost).
    The screen runs once per sweep and again over the rest of the sweep
    after every accepted move, so the Gauss–Seidel trajectory — every
    move, every sweep, the final assignment — is that of the exhaustive
    scan.  With a negative price the argument fails, and every request is
    scored.

    Complexity is ``O(max_passes * K * L * h * T)`` where ``h`` bounds path
    length — the dominant non-LP cost of the Metis inner loop.
    """
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    assignment = dict(assignment)
    loads = instance.loads(assignment)
    prices = instance.prices
    screened = bool((prices >= 0).all())

    def cost_of(edge_indices: np.ndarray) -> float:
        peaks = loads[edge_indices].max(axis=1)
        return float(
            (prices[edge_indices] * np.ceil(peaks - 1e-9).clip(min=0)).sum()
        )

    def screen(requests: list, paths: list[int]) -> np.ndarray:
        if not screened:
            return np.ones(len(requests), dtype=bool)
        return ceiling_drops(instance, loads, requests, paths)

    for _ in range(max_passes):
        changed = False
        movable = [
            req
            for req in instance.requests
            if assignment[req.request_id] is not None
            and instance.num_paths(req.request_id) >= 2
        ]
        paths = [assignment[req.request_id] for req in movable]
        flags = screen(movable, paths)
        for pos, req in enumerate(movable):
            if not flags[pos]:
                continue
            rid = req.request_id
            current = paths[pos]
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
                flags[pos + 1 :] = screen(movable[pos + 1 :], paths[pos + 1 :])
        if not changed:
            break
    return assignment
