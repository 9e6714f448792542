import json
import math

import numpy as np
import pytest

from lorentzmin.harness import dumps_json
from lorentzmin.errors import InvalidInputError
from lorentzmin.report import ConditionReport

NAN = float("nan")
PTS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


class TestNonFinite:
    def test_from_max_nan_fails_and_is_worst(self):
        rep = ConditionReport.from_max("x", [1e-12, NAN], 1e-6, "g", points=PTS[:2])
        assert not rep.passed
        assert math.isnan(rep.max_residual)
        assert rep.worst_point == (0.0, 1.0)

    def test_from_min_nan_fails_and_is_worst(self):
        rep = ConditionReport.from_min("x", [5.0, NAN], 1e-9, "g", points=PTS[:2])
        assert not rep.passed
        assert math.isnan(rep.max_residual)
        assert rep.worst_point == (0.0, 1.0)

    def test_first_non_finite_in_node_order_wins(self):
        values = np.array([[1e-12, 1e300], [-math.inf, NAN]])
        rep = ConditionReport.from_max("x", values, 1e-6, "g", points=PTS)
        assert not rep.passed and rep.max_residual == -math.inf
        assert rep.worst_point == (1.0, 0.0)

    def test_infinite_lower_bound_value_fails(self):
        rep = ConditionReport.from_min("x", [2.0, math.inf], 1e-9, "g", points=PTS[:2])
        assert not rep.passed
        assert rep.worst_point == (0.0, 1.0)

    @pytest.mark.parametrize("value, text", [(NAN, "nan"), (math.inf, "inf"),
                                             (-math.inf, "-inf")])
    def test_non_finite_residual_serializes_as_a_string(self, value, text):
        rep = ConditionReport.from_max("x", [1e-12, value], 1e-6, "g", points=PTS[:2])
        out = json.loads(dumps_json(rep.to_dict()))
        assert out["max_residual"] == text and out["passed"] is False
        assert out["worst_point"] == [0.0, 1.0]

    def test_dumps_json_still_refuses_other_non_finite_floats(self):
        rep = ConditionReport.from_max("x", [1e-12], 1e-6, "g")
        for bad in (NAN, math.inf):
            with pytest.raises(InvalidInputError):
                dumps_json({**rep.to_dict(), "tol": bad})


class TestReduction:
    def test_ties_take_the_first_node(self):
        hi = ConditionReport.from_max("x", [1.0, 3.0, 3.0, 2.0], 5.0, "g", points=PTS)
        lo = ConditionReport.from_min("x", [2.0, 1.0, 1.0, 3.0], 0.5, "g", points=PTS)
        assert hi.worst_point == (0.0, 1.0) and hi.passed
        assert lo.worst_point == (0.0, 1.0) and lo.passed

    def test_grid_array_reduces_in_x_major_order(self):
        values = np.array([[0.0, 0.1], [0.7, 0.2]])
        rep = ConditionReport.from_max("x", values, 1.0, "g", points=PTS)
        assert rep.max_residual == 0.7 and rep.worst_point == (1.0, 0.0)
        assert isinstance(rep.max_residual, float)
        assert all(type(v) is float for v in rep.worst_point)


class TestBoundary:
    """A value exactly at its bound passes; the next float past it fails."""

    def test_from_max_passes_at_tol(self):
        tol = 1e-9
        assert ConditionReport.from_max("x", [0.0, tol], tol, "g").passed
        assert not ConditionReport.from_max("x", [0.0, np.nextafter(tol, math.inf)], tol,
                                            "g").passed

    def test_from_min_passes_at_threshold(self):
        threshold = 1e-9
        assert ConditionReport.from_min("x", [threshold, 2.0], threshold, "g").passed
        low = ConditionReport.from_min("x", [np.nextafter(threshold, -math.inf), 2.0],
                                       threshold, "g")
        assert not low.passed and low.max_residual > low.tol
