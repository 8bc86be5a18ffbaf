"""The array-native local search against its scalar oracles.

``improve_paths`` and ``prune_unprofitable`` only score requests whose
removal lowers a charged ceiling; ``SPMInstance.loads`` is one bincount
over cached cells; ``round_paths`` draws every request at once.  Each must
reproduce the loops in :mod:`tests.oracles` exactly: the same assignments,
the same generator state and the same load bit patterns.  Rates such as
0.1/0.2/0.7 put loads a rounding error away from an integer, where the
charged ceiling ``ceil(load - 1e-9)`` is most fragile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import maa, metis
from repro.core.instance import SPMInstance
from repro.core.maa import improve_paths, round_paths
from repro.core.metis import Metis, prune_unprofitable
from repro.core.schedule import Schedule
from repro.experiments.common import ExperimentConfig, make_instance
from repro.net.topologies import random_wan
from repro.workload.request import Request, RequestSet

from tests import oracles
from tests.conftest import make_request

SLOTS = 4
_BOUNDARY_RATES = (0.1, 0.2, 0.3, 0.4, 0.7, 0.25, 0.5, 1.0 / 3.0)

fuzz_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def boundary_case(draw):
    """A random WAN, requests with near-integer loads and an assignment."""
    topo_seed = draw(st.integers(min_value=0, max_value=10_000))
    n_dcs = draw(st.integers(min_value=3, max_value=5))
    max_extra = n_dcs * (n_dcs - 1) // 2 - n_dcs
    extra = draw(st.integers(min_value=0, max_value=min(3, max_extra)))
    topo = random_wan(n_dcs, extra, price_range=(1.0, 5.0), rng=topo_seed)
    dcs = topo.datacenters
    n_requests = draw(st.integers(min_value=1, max_value=14))
    requests = []
    for i in range(n_requests):
        src = draw(st.integers(min_value=0, max_value=n_dcs - 1))
        off = draw(st.integers(min_value=1, max_value=n_dcs - 1))
        start = draw(st.integers(min_value=0, max_value=SLOTS - 1))
        end = draw(st.integers(min_value=start, max_value=SLOTS - 1))
        rate = draw(
            st.sampled_from(_BOUNDARY_RATES)
            | st.floats(min_value=0.05, max_value=1.5, allow_nan=False)
        )
        value = draw(
            st.sampled_from((0.0, 1.0, 2.0))
            | st.floats(min_value=0.0, max_value=6.0, allow_nan=False)
        )
        requests.append(
            Request(i, dcs[src], dcs[(src + off) % n_dcs], start, end, rate, value)
        )
    instance = SPMInstance.build(topo, RequestSet(requests, SLOTS), k_paths=3)
    assignment = {
        rid: draw(
            st.none()
            | st.integers(min_value=0, max_value=instance.num_paths(rid) - 1)
        )
        for rid in instance.requests.request_ids
    }
    return instance, assignment


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestScreenedMatchesOracles:
    @given(boundary_case())
    @fuzz_settings
    def test_loads_bit_identical(self, case):
        instance, assignment = case
        assert_same_bits(
            instance.loads(assignment), oracles.loads(instance, assignment)
        )
        # A restricted view reuses the parent's cached cells.
        ids = instance.requests.request_ids[::2]
        child = instance.restrict(ids)
        sub = {rid: assignment[rid] for rid in ids}
        assert_same_bits(child.loads(sub), oracles.loads(child, sub))

    @given(boundary_case())
    @fuzz_settings
    def test_improve_paths_matches_exhaustive_scan(self, case):
        instance, assignment = case
        assert improve_paths(instance, assignment) == oracles.improve_paths(
            instance, assignment
        )
        assert improve_paths(
            instance, assignment, max_passes=1
        ) == oracles.improve_paths(instance, assignment, max_passes=1)

    @given(boundary_case())
    @fuzz_settings
    def test_prune_matches_scalar_scan(self, case):
        instance, assignment = case
        schedule = Schedule(instance, assignment)
        pruned = prune_unprofitable(instance, schedule)
        assert pruned.assignment == oracles.prune_unprofitable(
            instance, schedule
        ).assignment
        assert_same_bits(schedule.loads, oracles.loads(instance, assignment))

    @given(
        boundary_case(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.data(),
    )
    @fuzz_settings
    def test_round_paths_matches_choice_loop(self, case, seed, data):
        instance, _ = case
        weight = st.sampled_from((0.0, 0.1, 0.2, 0.7, 1.0)) | st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False
        )
        weights = {
            rid: data.draw(
                st.lists(weight, min_size=1, max_size=instance.num_paths(rid))
            )
            for rid in instance.requests.request_ids
        }
        gen = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        assert round_paths(instance, weights, gen) == oracles.round_paths(
            instance, weights, ref
        )
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_improve_scores_every_request_under_negative_prices(
        self, diamond_instance
    ):
        """The screen's monotonicity needs prices >= 0; otherwise scan all."""
        instance = diamond_instance.reprice(-diamond_instance.prices)
        assignment = {0: 0, 1: 0, 2: 0}
        assert improve_paths(instance, assignment) == oracles.improve_paths(
            instance, assignment
        )


class TestRoundPathsValidation:
    @pytest.mark.parametrize(
        "bad",
        [[float("nan"), 1.0], [-1.0, 2.0], [0.5, -0.25]],
        ids=["nan", "negative", "negative-small"],
    )
    def test_rejects_like_choice(self, diamond_instance, bad):
        weights = {0: [0.3, 0.7], 1: bad, 2: [1.0, 0.0]}
        gen = np.random.default_rng(11)
        ref = np.random.default_rng(11)
        with pytest.raises(ValueError) as expected:
            oracles.round_paths(diamond_instance, weights, ref)
        with pytest.raises(ValueError) as actual:
            round_paths(diamond_instance, weights, gen)
        assert str(actual.value) == str(expected.value)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_zero_total_falls_back_without_a_draw(self, diamond_instance):
        weights = {0: [0.0, 0.0], 1: [0.2, 0.8], 2: []}
        gen = np.random.default_rng(3)
        ref = np.random.default_rng(3)
        assert round_paths(diamond_instance, weights, gen) == oracles.round_paths(
            diamond_instance, weights, ref
        )
        assert gen.bit_generator.state == ref.bit_generator.state


class TestPruneScreen:
    def test_marginal_saving_leaves_loads_bitwise_intact(
        self, diamond, monkeypatch
    ):
        """Rates 0.2, 0.1, 0.4 load B->D to 0.7000000000000001.

        Scoring the 0.2 request by subtracting its rate and adding it back
        would leave 0.7; the second pass (after request 3 is removed) must
        still read the true load.
        """
        requests = RequestSet(
            [
                make_request(0, "A", "D", rate=0.2, value=1.5),
                make_request(1, "B", "D", rate=0.1, value=2.0),
                make_request(2, "B", "D", rate=0.4, value=3.0),
                make_request(3, "C", "D", rate=0.3, value=0.5),
            ],
            num_slots=1,
        )
        instance = SPMInstance.build(diamond, requests, k_paths=1)
        schedule = Schedule(instance, {0: 0, 1: 0, 2: 0, 3: 0})
        bd = instance.edge_index[("B", "D")]
        assert schedule.loads[bd, 0] == 0.7000000000000001
        assert (schedule.loads[bd, 0] - 0.2) + 0.2 != schedule.loads[bd, 0]

        seen = []
        real = metis.ceiling_drops

        def spy(instance, loads, requests, paths):
            seen.append(loads[bd, 0])
            return real(instance, loads, requests, paths)

        monkeypatch.setattr(metis, "ceiling_drops", spy)
        pruned = prune_unprofitable(instance, schedule)
        assert pruned.assignment == {0: 0, 1: 0, 2: 0, 3: None}
        assert seen == [0.7000000000000001, 0.7000000000000001]
        assert pruned.assignment == oracles.prune_unprofitable(
            instance, schedule
        ).assignment

    def test_removal_rescores_requests_sharing_its_edges(self, diamond):
        """An unflagged request can become removable within the same pass.

        B->D carries 0.2 + 0.3 + 0.35 + 0.48 = 1.33.  Removing request 1
        alone leaves 1.03 (still two units), so the pass-start screen does
        not flag it; once request 0 is gone it would drop a unit and must
        be removed before request 2 is scored.
        """
        requests = RequestSet(
            [
                make_request(0, "A", "D", rate=0.2, value=0.5),
                make_request(1, "B", "D", rate=0.3, value=0.8),
                make_request(2, "B", "D", rate=0.35, value=0.9),
                make_request(3, "B", "D", rate=0.48, value=5.0),
            ],
            num_slots=1,
        )
        instance = SPMInstance.build(diamond, requests, k_paths=1)
        schedule = Schedule(instance, {0: 0, 1: 0, 2: 0, 3: 0})
        expected = {0: None, 1: None, 2: 0, 3: 0}
        assert oracles.prune_unprofitable(instance, schedule).assignment == expected
        assert prune_unprofitable(instance, schedule).assignment == expected


@pytest.fixture(scope="module")
def plan_instance():
    """The plan benchmark's bids: B4, K=200, 12 slots."""
    config = ExperimentConfig(topology="b4", request_counts=(200,), seed=2019)
    return make_instance(config, 200)


def test_metis_at_plan_scale_matches_oracle_run(plan_instance, monkeypatch):
    """K=200 on B4: the screened Metis picks the oracle run's schedule."""
    screened = Metis(theta=10, maa_rounds=5).solve(plan_instance, rng=1)

    monkeypatch.setattr(maa, "round_paths", oracles.round_paths)
    monkeypatch.setattr(metis, "improve_paths", oracles.improve_paths)
    monkeypatch.setattr(metis, "prune_unprofitable", oracles.prune_unprofitable)
    monkeypatch.setattr(SPMInstance, "loads", oracles.loads)
    fresh = SPMInstance(
        plan_instance.topology, plan_instance.requests, plan_instance.paths
    )
    reference = Metis(theta=10, maa_rounds=5).solve(fresh, rng=1)

    assert screened.best.profit == reference.best.profit
    assert screened.best.schedule.assignment == reference.best.schedule.assignment
    assert screened.rounds == reference.rounds
