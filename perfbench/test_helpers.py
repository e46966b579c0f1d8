"""Tests for the benchmark's own helpers: python3 -m pytest perfbench"""

import numpy as np
import pytest

from perfbench.checks import BACKWARD_ERROR_TOL, backward_error, check_solve, matrix_inf_norm
from perfbench.harness import Span, Tracer, covered_ns, percentile, self_time_ns
from tritoep import make_spec, thomas_solve


def _span(start, end, parent=None):
    return Span(0, parent, 0, "x", start, end)


class TestPercentile:
    def test_interpolates_between_order_statistics(self):
        q = percentile([5.0, 1.0, 4.0, 2.0, 3.0], 90)
        assert q.value == pytest.approx(4.6)
        assert q.count == 5
        assert q.beyond == 1

    def test_matches_numpy_linear_method(self):
        data = np.random.default_rng(0).standard_normal(101)
        for pct in (0, 10, 50, 90, 99, 100):
            assert percentile(data, pct).value == pytest.approx(np.percentile(data, pct))

    def test_sample_count_and_tail(self):
        q = percentile(range(100), 90)
        assert q.count == 100
        assert q.beyond == 10

    def test_single_sample(self):
        q = percentile([7.0], 90)
        assert (q.value, q.count, q.beyond) == (7.0, 1, 0)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSelfTime:
    def test_no_children(self):
        assert self_time_ns(_span(0, 100), []) == 100

    def test_disjoint_children(self):
        kids = [_span(10, 20), _span(50, 80)]
        assert self_time_ns(_span(0, 100), kids) == 60

    def test_nested_children_count_once(self):
        # a grandchild inside a child covers nothing the child does not
        kids = [_span(10, 60), _span(20, 30)]
        assert self_time_ns(_span(0, 100), kids) == 50

    def test_overlapping_children_count_once(self):
        kids = [_span(10, 40), _span(30, 70), _span(70, 75)]
        assert self_time_ns(_span(0, 100), kids) == 35

    def test_children_clipped_to_parent(self):
        kids = [_span(-10, 10), _span(90, 150)]
        assert self_time_ns(_span(0, 100), kids) == 80

    def test_covered_ignores_outside_intervals(self):
        assert covered_ns(0, 100, [(100, 200), (-50, 0)]) == 0

    def test_tracer_links_children_and_records_errors(self):
        tracer = Tracer()
        tracer.request_id = 3
        root = tracer.open("request")
        tracer.call("inner", 1, sum, [1, 2])
        with pytest.raises(ZeroDivisionError):
            tracer.call("boom", 1, lambda: 1 / 0)
        tracer.close(root)
        inner, boom = tracer.spans[1], tracer.spans[2]
        assert inner.parent_id == root.span_id and boom.parent_id == root.span_id
        assert inner.request_id == 3 and boom.error == "ZeroDivisionError"
        assert 0 <= self_time_ns(root, tracer.children()[root.span_id]) <= root.duration_ns


class TestBackwardError:
    def setup_method(self):
        self.spec = make_spec(1.5, -4.0, 0.5, 200)
        self.rhs = np.random.default_rng(1).standard_normal(200)

    def test_inf_norm_is_largest_row_sum(self):
        assert matrix_inf_norm(self.spec) == 6.0
        assert matrix_inf_norm(make_spec(1.5, -4.0, 0.5, 2)) == 5.5
        assert matrix_inf_norm(make_spec(1.5, -4.0, 0.5, 1)) == 4.0

    def test_exact_solution_passes(self):
        x = thomas_solve(self.spec, self.rhs)
        assert backward_error(self.spec, x, self.rhs) < 1e-14
        assert check_solve(self.spec, x, self.rhs) is None

    def test_perturbed_solution_fails(self):
        x = thomas_solve(self.spec, self.rhs)
        x[77] *= 1.0 + 1e-6
        assert backward_error(self.spec, x, self.rhs) > BACKWARD_ERROR_TOL
        assert "backward error" in check_solve(self.spec, x, self.rhs)

    def test_non_finite_solution_fails(self):
        x = thomas_solve(self.spec, self.rhs)
        x[3] = np.nan
        assert check_solve(self.spec, x, self.rhs) is not None
