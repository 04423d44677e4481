"""Tests for the structure validators."""

import numpy as np

from repro.core import build_portals
from repro.core.validate import validate_hierarchy, validate_portals
from repro.graphs import Graph


class TestHierarchyValidation:
    def test_healthy_structure_passes(self, hierarchy64):
        report = validate_hierarchy(hierarchy64)
        assert report.ok, report.problems
        assert report.checks_run > 10

    def test_detects_cross_part_edge(self, hierarchy64):
        import copy

        broken = copy.deepcopy(hierarchy64)
        level = broken.levels[0]
        parts = level.parts
        # Move one node to a different part without rebuilding the overlay.
        victim = int(np.flatnonzero(parts == parts[0])[0])
        other_part = int(parts[parts != parts[victim]][0])
        level.parts = parts.copy()
        level.parts[victim] = other_part
        report = validate_hierarchy(broken)
        assert not report.ok
        assert any("cross" in p or "refine" in p for p in report.problems)

    def test_detects_bad_emulation_cost(self, hierarchy64):
        import copy

        broken = copy.deepcopy(hierarchy64)
        broken.levels[0].emulation_cost = 0.0
        report = validate_hierarchy(broken)
        assert not report.ok
        assert any("emulation" in p for p in report.problems)

    def test_detects_disconnected_part(self, hierarchy64):
        import copy

        broken = copy.deepcopy(hierarchy64)
        level = broken.levels[-1]
        # Replace the bottom overlay with an edgeless graph.
        level.overlay = Graph(level.overlay.num_nodes, [])
        report = validate_hierarchy(broken)
        assert not report.ok


class TestPortalValidation:
    def test_healthy_portals_pass(self, hierarchy64, params):
        portals = build_portals(
            hierarchy64, params, np.random.default_rng(280)
        )
        report = validate_portals(hierarchy64, portals)
        assert report.ok, report.problems

    def test_detects_missing_portal(self, hierarchy64, params):
        portals = build_portals(
            hierarchy64, params, np.random.default_rng(281)
        )
        portals.tables[0][:, 1] = -1
        report = validate_portals(hierarchy64, portals)
        assert not report.ok
        assert any("missing" in p for p in report.problems)

    def test_detects_out_of_part_portal(self, hierarchy64, params):
        portals = build_portals(
            hierarchy64, params, np.random.default_rng(282)
        )
        parts = hierarchy64.parts_at(1)
        table = portals.tables[0]
        # Point one node's portal at a vnode in a different part.
        column = 0
        holders = np.flatnonzero(table[:, column] >= 0)
        victim = int(holders[0])
        foreign = int(np.flatnonzero(parts != parts[victim])[0])
        table[victim, column] = foreign
        report = validate_portals(hierarchy64, portals)
        assert not report.ok
