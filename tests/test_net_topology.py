"""Tests for repro.net.topology."""

import pytest

from repro.exceptions import EdgeNotFoundError, TopologyError
from repro.net.topology import Topology


def make_square():
    topo = Topology("square")
    for node in "ABCD":
        topo.add_datacenter(node)
    topo.add_link("A", "B", 1.0)
    topo.add_link("B", "C", 2.0)
    topo.add_link("C", "D", 1.0)
    topo.add_link("D", "A", 2.0)
    return topo


class TestConstruction:
    def test_bidirectional_links_by_default(self):
        topo = make_square()
        assert topo.num_edges == 8
        assert topo.price("A", "B") == topo.price("B", "A") == 1.0

    def test_unidirectional_link(self):
        topo = Topology("uni")
        topo.add_datacenter("A")
        topo.add_datacenter("B")
        topo.add_link("A", "B", 1.0, bidirectional=False)
        assert topo.num_edges == 1
        with pytest.raises(EdgeNotFoundError):
            topo.price("B", "A")

    def test_negative_price_rejected(self):
        topo = Topology("bad")
        with pytest.raises(TopologyError):
            topo.add_link("A", "B", -1.0)

    def test_region_recording(self):
        topo = Topology("regions")
        topo.add_datacenter("A", "europe")
        topo.add_datacenter("B")
        assert topo.region("A") == "europe"
        assert topo.region("B") is None


class TestCapacities:
    def test_default_capacity_unlimited(self):
        topo = make_square()
        assert topo.capacity("A", "B") is None

    def test_set_capacity(self):
        topo = make_square()
        topo.set_capacity("A", "B", 5)
        assert topo.capacity("A", "B") == 5
        assert topo.capacity("B", "A") is None, "directions are independent"

    def test_uniform_capacity(self):
        topo = make_square()
        topo.set_uniform_capacity(10)
        assert all(c == 10 for c in topo.capacities().values())

    def test_bad_capacity_rejected(self):
        topo = make_square()
        with pytest.raises(TopologyError):
            topo.set_capacity("A", "B", -1)
        with pytest.raises(TopologyError):
            topo.add_link("A", "C", 1.0, capacity=1.5)  # type: ignore[arg-type]

    def test_capacity_on_link_creation(self):
        topo = Topology("cap")
        topo.add_link("A", "B", 1.0, capacity=3)
        assert topo.capacity("A", "B") == 3
        assert topo.capacity("B", "A") == 3


class TestPathsAndValidation:
    def test_candidate_paths_sorted_by_cost(self):
        topo = make_square()
        paths = topo.candidate_paths("A", "C", k=2)
        assert len(paths) == 2
        assert paths[0].cost <= paths[1].cost
        assert {paths[0].nodes, paths[1].nodes} == {
            ("A", "B", "C"),
            ("A", "D", "C"),
        }

    def test_candidate_paths_memoized(self):
        topo = make_square()
        first = topo.candidate_paths("A", "C", k=2)
        assert topo.candidate_paths("A", "C", k=2) is first
        assert topo.candidate_paths("A", "C", k=1) == first[:1]

    def test_link_added_after_a_call_changes_paths(self):
        topo = make_square()
        before = topo.candidate_paths("A", "C", k=2)
        topo.add_link("A", "C", 0.5)
        after = topo.candidate_paths("A", "C", k=2)
        assert after[0].nodes == ("A", "C")
        assert after != before

    def test_datacenter_added_after_a_call_changes_paths(self):
        topo = make_square()
        before = topo.candidate_paths("A", "C", k=3)
        topo.add_datacenter("E")
        topo.add_link("A", "E", 0.1)
        topo.add_link("E", "C", 0.1)
        after = topo.candidate_paths("A", "C", k=3)
        assert after[0].nodes == ("A", "E", "C")
        assert len(after) == len(before) + 1

    def test_copy_starts_with_empty_memo(self):
        topo = make_square()
        topo.candidate_paths("A", "C", k=2)
        clone = topo.copy()
        assert clone.candidate_paths("A", "C", k=2) == topo.candidate_paths(
            "A", "C", k=2
        )
        clone.add_link("A", "C", 0.5)
        assert topo.candidate_paths("A", "C", k=2)[0].nodes != ("A", "C")

    def test_validate_accepts_square(self):
        make_square().validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(TopologyError, match="no data centers"):
            Topology("empty").validate()

    def test_validate_rejects_disconnected(self):
        topo = Topology("disc")
        topo.add_link("A", "B", 1.0)
        topo.add_datacenter("Z")
        with pytest.raises(TopologyError, match="strongly connected"):
            topo.validate()

    def test_copy_independent(self):
        topo = make_square()
        clone = topo.copy()
        clone.set_capacity("A", "B", 1)
        assert topo.capacity("A", "B") is None
        assert clone.num_edges == topo.num_edges
