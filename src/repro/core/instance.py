"""A concrete SPM instance: topology, requests and candidate paths.

:class:`SPMInstance` pins everything the formulations and algorithms consume:

* the WAN topology with per-edge prices ``u_e``;
* the request set (one billing cycle of ``T`` slots);
* for every request ``i`` the pre-enumerated candidate path set
  ``P_i = {P_{i,1}, ..., P_{i,L_i}}`` (k cheapest simple paths);
* the edge index and the path-edge incidence ``I_{i,j,e}`` in array form;
* the incidence spread over each request's slot window — one
  :class:`Incidence` per request, filled lazily by the instance's single
  builder and shared by every :meth:`~SPMInstance.restrict` and
  :meth:`~SPMInstance.reprice` view (incidence does not depend on prices).
  The formulation compiler assembles every model from it and
  :meth:`~SPMInstance.loads` sums it.

Path enumeration is memoized on the topology per (source, dest, k), so
instances over the same topology share the enumeration work.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import NamedTuple

import numpy as np

from repro.exceptions import ScheduleError
from repro.net.paths import Path
from repro.net.topology import Topology
from repro.workload.request import Request, RequestSet

__all__ = ["Incidence", "SPMInstance"]

NodeId = Hashable
EdgeKey = tuple[NodeId, NodeId]


class Incidence(NamedTuple):
    """One request's incidence ``I_{i,j,e}`` spread over its slot window.

    ``cells[j]`` holds the cells ``edge * T + slot`` that candidate path
    ``j`` loads with ``rate`` — edge-major, slot-minor, the nesting the
    expression builders walk.  ``value`` is the request's bid.
    """

    cells: list[np.ndarray]
    rate: float
    value: float


class SPMInstance:
    """An instance of the service-profit-maximization problem."""

    def __init__(
        self,
        topology: Topology,
        requests: RequestSet,
        paths: dict[int, list[Path]],
    ) -> None:
        self.topology = topology
        self.requests = requests
        self.paths = paths
        for req in requests:
            if req.request_id not in paths or not paths[req.request_id]:
                raise ScheduleError(
                    f"request {req.request_id} has no candidate paths"
                )

        #: Directed edges in a fixed order; ``edge_index`` inverts it.
        self.edges: list[EdgeKey] = [e.key for e in topology.edges]
        self.edge_index: dict[EdgeKey, int] = {
            key: idx for idx, key in enumerate(self.edges)
        }
        #: Per-unit prices aligned with ``edges``.
        self.prices: np.ndarray = np.array(
            [topology.price(*key) for key in self.edges]
        )
        #: For request ``i`` and path ``j``: the edge indices along the path.
        self.path_edges: dict[int, list[np.ndarray]] = {
            req_id: [
                np.array([self.edge_index[ek] for ek in path.edges], dtype=int)
                for path in path_list
            ]
            for req_id, path_list in paths.items()
        }
        # Lazily-built array-native compiler (see formulation_compiler()).
        self._fastform = None
        # request id -> Incidence, filled on first use by incidence();
        # shared with restrict()/reprice() views.
        self._incidence: dict[int, Incidence] = {}

    # ----------------------------------------------------------- constructors

    @classmethod
    def build(
        cls,
        topology: Topology,
        requests: RequestSet,
        *,
        k_paths: int = 3,
    ) -> "SPMInstance":
        """Enumerate up to ``k_paths`` cheapest simple paths per request."""
        paths = {
            req.request_id: topology.candidate_paths(req.source, req.dest, k=k_paths)
            for req in requests
        }
        return cls(topology, requests, paths)

    def restrict(self, request_ids: Iterable[int]) -> "SPMInstance":
        """The same instance over a subset of the requests — zero-copy.

        The restricted instance *shares* the parent's edge order, edge
        index, price vector, per-path edge arrays, the incidence table and
        the lazily-built formulation compiler (all are keyed per request
        id, so a subset view stays valid); only the request subset and its
        path-dict views are new.  Metis restricts once per alternation
        round, so rebuilding the incidence arrays here used to dominate the
        non-solver round cost.  Nothing mutates the shared state after
        construction (the incidence table only gains entries).
        """
        subset = self.requests.subset(request_ids)
        child = SPMInstance.__new__(SPMInstance)
        child.topology = self.topology
        child.requests = subset
        child.paths = {req.request_id: self.paths[req.request_id] for req in subset}
        child.edges = self.edges
        child.edge_index = self.edge_index
        child.prices = self.prices
        child.path_edges = {
            req.request_id: self.path_edges[req.request_id] for req in subset
        }
        child._fastform = self._fastform
        child._incidence = self._incidence
        return child

    def reprice(self, prices: np.ndarray) -> "SPMInstance":
        """The same instance under a different price vector — zero-copy.

        Shares the topology, requests, paths, edge order, per-path edge
        arrays and incidence table; only ``prices`` is replaced.  The
        lazily-built formulation compiler is *not* shared (it reads the
        price vector), so the repriced instance compiles fresh models
        against the new prices — from the shared incidence — while the
        parent's caches stay valid.

        This is the decision-steering hook of the Lagrangian decomposition
        (:mod:`repro.decomp`): shard subproblems solve against
        ``u_e + lambda_e`` while all accounting stays on the true ``u_e``.
        """
        prices = np.asarray(prices, dtype=float)
        if prices.shape != self.prices.shape:
            raise ValueError(
                f"prices shaped {prices.shape}, expected {self.prices.shape}"
            )
        child = SPMInstance.__new__(SPMInstance)
        child.topology = self.topology
        child.requests = self.requests
        child.paths = self.paths
        child.edges = self.edges
        child.edge_index = self.edge_index
        child.prices = prices
        child.path_edges = self.path_edges
        child._fastform = None
        child._incidence = self._incidence
        return child

    # -------------------------------------------------------------- accessors

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_edges(self) -> int:
        """|E|: number of directed edges."""
        return len(self.edges)

    @property
    def num_slots(self) -> int:
        """T: billing-cycle length in slots."""
        return self.requests.num_slots

    def num_paths(self, request_id: int) -> int:
        """L_i: candidate-path count of request ``request_id``."""
        return len(self.paths[request_id])

    def request(self, request_id: int) -> Request:
        return self.requests[request_id]

    def path(self, request_id: int, path_idx: int) -> Path:
        try:
            return self.paths[request_id][path_idx]
        except (KeyError, IndexError):
            raise ScheduleError(
                f"no path #{path_idx} for request {request_id}"
            ) from None

    def uses_edge(self, request_id: int, path_idx: int, edge_idx: int) -> bool:
        """The incidence indicator ``I_{i,j,e}``."""
        return edge_idx in self.path_edges[request_id][path_idx]

    def formulation_compiler(self):
        """The instance's array-native formulation compiler, cached.

        Emits the RL-SPM / BL-SPM / full-SPM compiled models and the
        serving layer's incremental batch MILP from the instance's
        incidence table with vectorized numpy assembly, bitwise identical
        to the expression builders in :mod:`repro.core.formulations` and
        :func:`repro.core.online.build_incremental_spm`.  Restricted
        instances share their parent's compiler (see :meth:`restrict`).
        Returns a
        :class:`repro.core.fastform.FormulationCompiler` (imported lazily
        to avoid a module cycle).
        """
        if self._fastform is None:
            from repro.core.fastform import FormulationCompiler

            self._fastform = FormulationCompiler(self)
        return self._fastform

    # ------------------------------------------------------------ incidence

    def incidence(self, request_ids: list[int]) -> list[Incidence]:
        """The :class:`Incidence` of each of ``request_ids``, in order.

        Requests not yet in the shared table are filled in one call of
        :meth:`_fill_incidence` first.
        """
        table = self._incidence
        missing = [rid for rid in request_ids if rid not in table]
        if missing:
            self._fill_incidence(missing)
        return [table[rid] for rid in request_ids]

    def _fill_incidence(self, request_ids: list[int]) -> None:
        """Build the incidence of ``request_ids`` into the shared table.

        The only builder of the (request, path, edge, slot) incidence.  All
        requests are flattened together with array ops — every path edge
        crossed with its request's slot window, entry-major and
        slot-minor — and the flat key array is then cut into per-path
        views.
        """
        reqs = [self.requests[rid] for rid in request_ids]
        path_lists = [self.path_edges[rid] for rid in request_ids]
        paths_per_req = [len(path_list) for path_list in path_lists]
        flat_paths = [edges for path_list in path_lists for edges in path_list]

        # Per path: its request's start and window width, its edge count.
        starts = np.repeat([req.start for req in reqs], paths_per_req)
        widths = np.repeat(
            [req.end - req.start + 1 for req in reqs], paths_per_req
        )
        sizes = np.array([edges.size for edges in flat_paths])

        # Per (path, edge) entry: one key ``edge * T + start + offset`` per
        # slot of its window.  Subtracting the entry's first flat position
        # lets one global ``arange`` supply every offset.
        entry_widths = np.repeat(widths, sizes)
        entry_first = np.cumsum(entry_widths) - entry_widths
        entry_base = (
            np.concatenate(flat_paths).astype(np.int64, copy=False)
            * self.num_slots
            + np.repeat(starts, sizes)
            - entry_first
        )
        keys = np.repeat(entry_base, entry_widths) + np.arange(
            int(entry_widths.sum()), dtype=np.int64
        )
        keys.flags.writeable = False  # every view of the table shares it

        bounds = [0] + np.cumsum(sizes * widths).tolist()
        path_keys = [keys[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        table = self._incidence
        first = 0
        for rid, req, count in zip(request_ids, reqs, paths_per_req):
            table[rid] = Incidence(
                cells=path_keys[first : first + count],
                rate=float(req.rate),
                value=float(req.value),
            )
            first += count

    # ---------------------------------------------------------------- loads

    def loads(self, assignment: dict[int, int | None]) -> np.ndarray:
        """Per-(edge, slot) bandwidth demanded by ``assignment``.

        ``assignment`` maps request id -> chosen path index (or ``None`` for
        declined).  Returns an array of shape ``(num_edges, num_slots)``.

        One ``bincount`` over every assigned (request, path) span of the
        incidence table, in assignment order: bincount adds its weights
        in input order starting from 0.0, so each cell is summed exactly as
        a per-request ``loads[edges, window] += rate`` loop would sum it.
        """
        picked = [(rid, j) for rid, j in assignment.items() if j is not None]
        if not picked:
            return np.zeros((self.num_edges, self.num_slots))
        table = self._incidence
        missing = [rid for rid, _ in picked if rid not in table]
        if missing:
            self._fill_incidence(missing)
        cells: list[np.ndarray] = []
        rates: list[float] = []
        for rid, path_idx in picked:
            inc = table[rid]
            cells.append(inc.cells[path_idx])
            rates.append(inc.rate)
        flat = np.bincount(
            np.concatenate(cells),
            weights=np.repeat(rates, [c.size for c in cells]),
            minlength=self.num_edges * self.num_slots,
        )
        return flat.reshape(self.num_edges, self.num_slots)

    def __repr__(self) -> str:
        return (
            f"SPMInstance(topology={self.topology.name!r}, "
            f"K={self.num_requests}, T={self.num_slots}, |E|={self.num_edges})"
        )
