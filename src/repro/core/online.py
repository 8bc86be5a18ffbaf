"""Online SPM: deciding sealed bids slot by slot (extension).

The paper evaluates the *offline* problem — all bids for a billing cycle
are known before any decision.  Its operational story (first-price
sealed-bid requests submitted to the provider) equally supports an online
reading: bids arrive over the cycle and each must be accepted (with a
path) or declined when its window starts, irrevocably.  This module
implements that variant on top of the same substrate:

* at each slot ``t`` the provider faces the batch of requests starting at
  ``t``, with the loads and integer bandwidth of earlier commitments sunk;
* the batch decision is made *exactly* by an incremental MILP: maximize
  batch revenue minus the cost of the **extra** bandwidth units forced
  beyond what is already purchased (:func:`build_incremental_spm`) — the
  integer charging makes "ride an already-paid unit" free, which is what
  distinguishes this from EcoFlow's one-request-at-a-time greedy;
* the final accounting charges each edge the ceiling of its realized peak
  load, exactly like the offline solutions, so online and offline profits
  are directly comparable.

The batch MILP is built two ways.  :func:`build_incremental_spm` is the
readable reference: dict-backed :class:`~repro.lp.expr.LinExpr` rows
compiled per constraint.  The hot path is one more model kind of the
instance's :class:`~repro.core.fastform.FormulationCompiler`
(:meth:`~repro.core.fastform.FormulationCompiler.compile_batch`): the SPM
over the batch, assembled with vectorized numpy from the instance's shared
incidence table, with the ``c`` columns read as extra units and the
capacity-row right-hand sides as residual headroom.  Both produce the same
matrix, so decisions are bitwise identical; the equivalence tests assert
it.

The online provider is myopic across slots (it cannot see future bids),
so its profit is upper-bounded by offline OPT(SPM); the tests assert this
dominance and the exactness of each batch step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.exceptions import InfeasibleError, SolverError, SolverTimeoutError
from repro.lp.expr import LinExpr
from repro.lp.model import Model
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw
from repro.lp.warmstart import relax

__all__ = [
    "OnlineOutcome",
    "OnlineScheduler",
    "BatchDecision",
    "build_incremental_spm",
    "solve_batch",
    "commit_decision",
]

EdgeKey = tuple

_CEIL_TOL = 1e-9


def build_incremental_spm(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
):
    """The incremental MILP for one arrival batch (reference implementation).

    Decision variables: ``x[i, j]`` (binary path choice per batch request)
    and integer ``extra[e] >= 0``, the bandwidth units purchased beyond the
    already-charged ``charged[e]``.  Constraints couple the committed plus
    batch load at every (edge, slot) to ``charged[e] + extra[e]``; the
    objective is batch revenue minus the price of the extra units.

    This is the expression-layer build the fast path
    (:meth:`~repro.core.fastform.FormulationCompiler.compile_batch`) is
    verified against.  Returns
    ``(model, x_vars, extra_vars)``.
    """
    model = Model("incremental-spm")
    x_vars = {}
    for request_id in batch_ids:
        for path_idx in range(instance.num_paths(request_id)):
            x_vars[(request_id, path_idx)] = model.add_binary(
                f"x_{request_id}_{path_idx}"
            )
    extra_vars = {
        edge_idx: model.add_var(f"extra_{edge_idx}", 0.0, is_integer=True)
        for edge_idx in range(instance.num_edges)
    }

    for request_id in batch_ids:
        row = sum(
            x_vars[(request_id, j)]
            for j in range(instance.num_paths(request_id))
        )
        model.add_constr(row <= 1, name=f"choice_{request_id}")

    # Sparse (edge, slot) rows: only where a batch path adds load.
    touched: dict[tuple[int, int], LinExpr] = {}
    for request_id in batch_ids:
        req = instance.request(request_id)
        for path_idx in range(instance.num_paths(request_id)):
            var = x_vars[(request_id, path_idx)]
            for edge_idx in instance.path_edges[request_id][path_idx]:
                for t in req.slots:
                    key = (int(edge_idx), t)
                    expr = touched.get(key)
                    if expr is None:
                        expr = LinExpr()
                        touched[key] = expr
                    expr.terms[var] = expr.terms.get(var, 0.0) + req.rate

    for (edge_idx, t), load_expr in touched.items():
        headroom = float(charged[edge_idx] - committed_loads[edge_idx, t])
        model.add_constr(
            load_expr - extra_vars[edge_idx] <= headroom,
            name=f"cap_{edge_idx}_{t}",
        )

    objective = LinExpr()
    for request_id in batch_ids:
        req = instance.request(request_id)
        for path_idx in range(instance.num_paths(request_id)):
            var = x_vars[(request_id, path_idx)]
            objective.terms[var] = objective.terms.get(var, 0.0) + req.value
    for edge_idx, var in extra_vars.items():
        objective.terms[var] = objective.terms.get(var, 0.0) - float(
            instance.prices[edge_idx]
        )
    model.set_objective(objective, maximize=True)
    return model, x_vars, extra_vars


@dataclass(frozen=True)
class BatchDecision:
    """A decided batch: path choice per position plus solve provenance.

    ``suboptimal`` flags a decision read from a limit-hit incumbent
    (status ``FEASIBLE``): still a valid, capacity-respecting decision,
    just without an optimality certificate.  ``screened`` marks a batch
    decided by the LP bound alone (see :func:`solve_batch`'s
    ``lp_screen``): the relaxation proved no acceptance can beat
    declining everything, so the all-decline decision carries a full
    optimality certificate without an integer solve — status ``OPTIMAL``,
    cacheable like any exact decision.
    """

    choices: tuple
    status: SolveStatus
    objective: float
    screened: bool = False

    @property
    def suboptimal(self) -> bool:
        return self.status is SolveStatus.FEASIBLE


def solve_batch(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
    *,
    time_limit: float | None = None,
    check_cancelled=None,
    accept_feasible: bool = True,
    fast_path: bool = True,
    lp_screen: bool = False,
) -> BatchDecision:
    """Decide one arrival batch: path choice per position plus provenance.

    With ``fast_path`` (default) the MILP is assembled by the instance's
    cached :class:`~repro.core.fastform.FormulationCompiler`; otherwise by
    the reference expression build — the two are decision-identical.
    State arrays are not mutated — apply the decision with
    :func:`commit_decision`.  The pure state-in/decision-out shape is what
    lets :mod:`repro.service` cache decisions and ship them across solver
    worker processes.  With
    ``accept_feasible`` (default) a solve that hits ``time_limit`` with an
    incumbent returns it as a valid (possibly suboptimal) decision; set it
    ``False`` for strict raise-on-non-optimal semantics.

    ``lp_screen`` (fast path only) solves the batch model's LP relaxation
    first and skips the integer solve when its bound certifies that no
    acceptance can be profitable.  The screen is *sound*, never
    heuristic: declining everything is always feasible at objective 0
    (the capacity rows' headroom is non-negative by the charged-units
    invariant), so the MILP optimum is ``>= 0``; the relaxation optimum
    is an upper bound on it; hence a relaxation bound ``<= 0`` pins the
    MILP optimum to exactly 0 and all-decline is optimal.  A bound above
    0 falls through to the normal integer solve — screening never changes
    a decision's objective, only the price paid for hopeless batches
    (the relaxation solves in a fraction of the MILP's time).

    Raises :class:`~repro.exceptions.SolverTimeoutError` when the limit is
    hit with no usable incumbent, so callers (the broker) can decline the
    batch instead of crashing.
    """
    if fast_path:
        compiled, x_offsets = instance.formulation_compiler().compile_batch(
            instance, batch_ids, committed_loads, charged
        )
        if lp_screen:
            bound = solve_compiled_raw(
                relax(compiled),
                time_limit=time_limit,
                check_cancelled=check_cancelled,
            )
            if bound.status is SolveStatus.OPTIMAL and bound.objective <= 0.0:
                return BatchDecision(
                    choices=(None,) * len(batch_ids),
                    status=SolveStatus.OPTIMAL,
                    objective=0.0,
                    screened=True,
                )
        raw = solve_compiled_raw(
            compiled, time_limit=time_limit, check_cancelled=check_cancelled
        )
        status, objective = raw.status, raw.objective
        extract = lambda: _choices_from_x(raw.x, x_offsets)  # noqa: E731
    else:
        model, x_vars, _ = build_incremental_spm(
            instance, batch_ids, committed_loads, charged
        )
        solution = model.solve(
            time_limit=time_limit, check_cancelled=check_cancelled
        )
        status, objective = solution.status, solution.objective
        extract = lambda: _choices_from_values(  # noqa: E731
            instance, batch_ids, solution.values, x_vars
        )

    if status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("incremental batch MILP infeasible")
    if status is SolveStatus.OPTIMAL or (
        accept_feasible and status is SolveStatus.FEASIBLE
    ):
        return BatchDecision(choices=extract(), status=status, objective=objective)
    if status in (SolveStatus.TIME_LIMIT, SolveStatus.FEASIBLE):
        raise SolverTimeoutError(
            f"batch MILP hit its time limit ({status.value}, "
            f"accept_feasible={accept_feasible})"
        )
    raise SolverError(f"batch MILP did not reach optimality: {status}")


def _choices_from_x(x: np.ndarray, x_offsets: np.ndarray) -> tuple:
    """Read per-request path choices from the raw fast-path solution."""
    chosen = np.round(x[: x_offsets[-1]]) > 0.5
    choices = []
    for lo, hi in zip(x_offsets[:-1], x_offsets[1:]):
        hit = np.flatnonzero(chosen[lo:hi])
        choices.append(int(hit[0]) if hit.size else None)
    return tuple(choices)


def _choices_from_values(
    instance: SPMInstance, batch_ids: list[int], values: dict, x_vars: dict
) -> tuple:
    """Read per-request path choices from the expression-path solution."""
    choices = []
    for request_id in batch_ids:
        chosen = None
        for path_idx in range(instance.num_paths(request_id)):
            if values[x_vars[(request_id, path_idx)]] > 0.5:
                chosen = path_idx
                break
        choices.append(chosen)
    return tuple(choices)


def commit_decision(
    instance: SPMInstance,
    batch_ids: list[int],
    decision: list[int | None],
    committed_loads: np.ndarray,
    charged: np.ndarray,
) -> int:
    """Apply a batch decision to the running state; returns accepted count.

    ``committed_loads`` gains the accepted requests' window loads and
    ``charged`` is raised to the ceiling of each touched edge's new peak —
    the same integer-unit accounting the offline solutions use.
    """
    accepted = 0
    for request_id, chosen in zip(batch_ids, decision):
        if chosen is None:
            continue
        accepted += 1
        req = instance.request(request_id)
        edge_idx = instance.path_edges[request_id][chosen]
        committed_loads[edge_idx, req.start : req.end + 1] += req.rate
        peaks = committed_loads[edge_idx].max(axis=1)
        charged[edge_idx] = np.maximum(
            charged[edge_idx], np.ceil(peaks - _CEIL_TOL)
        )
    return accepted


@dataclass
class OnlineOutcome:
    """The result of an online run: final schedule plus per-slot telemetry."""

    schedule: Schedule
    decisions_per_slot: list[tuple[int, int, int]] = field(default_factory=list)
    """Per slot: (slot, batch size, accepted count)."""

    @property
    def profit(self) -> float:
        return self.schedule.profit

    @property
    def revenue(self) -> float:
        return self.schedule.revenue

    @property
    def num_accepted(self) -> int:
        return self.schedule.num_accepted


class OnlineScheduler:
    """Slot-by-slot exact-incremental admission.

    ``time_limit`` bounds each batch MILP (they are small — one slot's
    arrivals); a limit-hit batch keeps its feasible incumbent when one
    exists and raises :class:`~repro.exceptions.SolverTimeoutError`
    otherwise, rather than guessing.  ``fast_path`` selects the
    array-native model build (default; decision-identical to the
    expression build).  ``lp_screen`` enables the sound relaxation-bound
    skip of :func:`solve_batch` for every batch; ``screened_batches``
    counts how many batches it answered.
    """

    def __init__(
        self,
        *,
        time_limit: float | None = 60.0,
        fast_path: bool = True,
        lp_screen: bool = False,
    ) -> None:
        self.time_limit = time_limit
        self.fast_path = fast_path
        self.lp_screen = lp_screen
        self.screened_batches = 0

    def run(self, instance: SPMInstance) -> OnlineOutcome:
        """Process every arrival batch in slot order and return the outcome."""
        assignment: dict[int, int | None] = {}
        committed_loads = np.zeros((instance.num_edges, instance.num_slots))
        charged = np.zeros(instance.num_edges)
        decisions: list[tuple[int, int, int]] = []

        by_start: dict[int, list[int]] = {}
        for req in instance.requests:
            by_start.setdefault(req.start, []).append(req.request_id)

        for slot in range(instance.num_slots):
            batch = by_start.get(slot, [])
            if not batch:
                continue
            accepted = self._decide_batch(
                instance, batch, committed_loads, charged, assignment
            )
            decisions.append((slot, len(batch), accepted))

        schedule = Schedule(instance, assignment)
        return OnlineOutcome(schedule=schedule, decisions_per_slot=decisions)

    def _decide_batch(
        self,
        instance: SPMInstance,
        batch: list[int],
        committed_loads: np.ndarray,
        charged: np.ndarray,
        assignment: dict[int, int | None],
    ) -> int:
        outcome = solve_batch(
            instance,
            batch,
            committed_loads,
            charged,
            time_limit=self.time_limit,
            fast_path=self.fast_path,
            lp_screen=self.lp_screen,
        )
        if outcome.screened:
            self.screened_batches += 1
        decision = list(outcome.choices)
        assignment.update(zip(batch, decision))
        return commit_decision(instance, batch, decision, committed_loads, charged)
