"""Tests for repro.core.operators (information measures, Eq. 1-4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.criteria import IntervalStatistics
from repro.core.operators import (
    IntervalSums,
    MeanOperator,
    SumOperator,
    get_operator,
    pic,
    safe_log2,
    state_sum,
    xlogx,
)


class TestHelpers:
    def test_xlogx_zero_convention(self):
        assert xlogx(0.0) == 0.0
        assert xlogx(np.array([0.0, 1.0]))[0] == 0.0

    def test_xlogx_values(self):
        assert xlogx(1.0) == pytest.approx(0.0)
        assert xlogx(0.5) == pytest.approx(-0.5)
        assert xlogx(2.0) == pytest.approx(2.0)

    def test_xlogx_negative_noise_treated_as_zero(self):
        assert xlogx(-1e-15) == 0.0

    def test_safe_log2(self):
        values = safe_log2(np.array([0.0, 1.0, 4.0]))
        assert values[0] == 0.0
        assert values[1] == pytest.approx(0.0)
        assert values[2] == pytest.approx(2.0)

    def test_pic_definition(self):
        assert pic(10.0, 4.0, 0.5) == pytest.approx(3.0)
        assert pic(10.0, 4.0, 0.0) == pytest.approx(-4.0)
        assert pic(10.0, 4.0, 1.0) == pytest.approx(10.0)

    def test_pic_rejects_bad_p(self):
        with pytest.raises(ValueError):
            pic(1.0, 1.0, 1.5)

    def test_get_operator(self):
        assert isinstance(get_operator(None), MeanOperator)
        assert isinstance(get_operator("mean"), MeanOperator)
        assert isinstance(get_operator("sum"), SumOperator)
        op = SumOperator()
        assert get_operator(op) is op
        with pytest.raises(ValueError):
            get_operator("median")


def sums_from_cells(rho_cells: np.ndarray, duration_per_cell: float = 1.0) -> IntervalSums:
    """Build IntervalSums from explicit per-cell proportions of one resource row."""
    rho_cells = np.asarray(rho_cells, dtype=float)  # (n_cells, X)
    n_cells = rho_cells.shape[0]
    return IntervalSums(
        sum_durations=(rho_cells * duration_per_cell).sum(axis=0),
        total_duration=np.asarray(n_cells * duration_per_cell),
        n_resources=1,
        sum_rho=rho_cells.sum(axis=0),
        sum_rho_log_rho=xlogx(rho_cells).sum(axis=0),
        n_cells=n_cells,
    )


class TestMeanOperator:
    def test_singleton_has_zero_gain_and_loss(self):
        sums = sums_from_cells(np.array([[0.3, 0.7]]))
        gain, loss = MeanOperator().gain_loss(sums)
        assert gain == pytest.approx(0.0, abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_homogeneous_cells_have_zero_loss(self):
        sums = sums_from_cells(np.array([[0.4, 0.6]] * 5))
        gain, loss = MeanOperator().gain_loss(sums)
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert gain > 0

    def test_heterogeneous_cells_have_positive_loss(self):
        sums = sums_from_cells(np.array([[0.9, 0.1], [0.1, 0.9]]))
        _, loss = MeanOperator().gain_loss(sums)
        assert loss > 0

    def test_macro_proportion_is_mean(self):
        cells = np.array([[0.2, 0.8], [0.6, 0.4]])
        sums = sums_from_cells(cells)
        macro = MeanOperator().macro_proportions(sums)
        assert np.allclose(macro, cells.mean(axis=0))

    def test_all_zero_cells(self):
        sums = sums_from_cells(np.zeros((4, 2)))
        gain, loss = MeanOperator().gain_loss(sums)
        assert gain == pytest.approx(0.0)
        assert loss == pytest.approx(0.0)

    def test_loss_equals_kl_decomposition(self):
        """Eq. 2: loss = sum rho log(rho / rho_macro)."""
        cells = np.array([[0.3, 0.7], [0.5, 0.5], [0.8, 0.2]])
        sums = sums_from_cells(cells)
        operator = MeanOperator()
        macro = operator.macro_proportions(sums)
        expected = 0.0
        for cell in cells:
            for x in range(2):
                expected += cell[x] * np.log2(cell[x] / macro[x])
        _, loss = operator.gain_loss(sums)
        assert loss == pytest.approx(expected)

    def test_gain_equals_entropy_decomposition(self):
        """Eq. 3: gain = rho_macro log rho_macro - sum rho log rho."""
        cells = np.array([[0.3, 0.7], [0.5, 0.5]])
        sums = sums_from_cells(cells)
        operator = MeanOperator()
        macro = operator.macro_proportions(sums)
        expected = sum(
            macro[x] * np.log2(macro[x]) - sum(cells[c, x] * np.log2(cells[c, x]) for c in range(2))
            for x in range(2)
        )
        gain, _ = operator.gain_loss(sums)
        assert gain == pytest.approx(expected)


class TestSumOperator:
    def test_singleton_zero(self):
        sums = sums_from_cells(np.array([[0.3, 0.7]]))
        gain, loss = SumOperator().gain_loss(sums)
        assert gain == pytest.approx(0.0, abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gain_is_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cells = rng.uniform(0, 0.5, size=(6, 3))
            gain, _ = SumOperator().gain_loss(sums_from_cells(cells))
            assert gain >= -1e-9

    def test_loss_is_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cells = rng.uniform(0, 0.5, size=(6, 3))
            _, loss = SumOperator().gain_loss(sums_from_cells(cells))
            assert loss >= -1e-9

    def test_uniform_cells_have_zero_loss(self):
        cells = np.full((4, 2), 0.25)
        _, loss = SumOperator().gain_loss(sums_from_cells(cells))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_gain_superadditive(self):
        """gain(A u B) >= gain(A) + gain(B) for the sum operator."""
        rng = np.random.default_rng(2)
        operator = SumOperator()
        for _ in range(10):
            a = rng.uniform(0, 0.5, size=(3, 2))
            b = rng.uniform(0, 0.5, size=(4, 2))
            gain_a, _ = operator.gain_loss(sums_from_cells(a))
            gain_b, _ = operator.gain_loss(sums_from_cells(b))
            gain_ab, _ = operator.gain_loss(sums_from_cells(np.vstack([a, b])))
            assert gain_ab >= gain_a + gain_b - 1e-9

    def test_macro_is_sum(self):
        cells = np.array([[0.2, 0.1], [0.3, 0.4]])
        macro = SumOperator().macro_proportions(sums_from_cells(cells))
        assert np.allclose(macro, cells.sum(axis=0))


class TestStateSum:
    """``state_sum`` reproduces numpy's contiguous reduce on state-major memory."""

    @staticmethod
    def _values(n_states: int) -> np.ndarray:
        rng = np.random.default_rng(n_states)
        # Mixed magnitudes: every row spans many orders of magnitude.
        values = rng.normal(size=(12, n_states)) * 10.0 ** rng.integers(-200, 200, (12, n_states))
        values[0] = -0.0  # numpy's sum is +0.0 here, whatever the length
        values[1, ::2] = -0.0
        values[1, 1::2] = 0.0
        values[2, n_states // 2] = np.inf
        values[3, -1] = -np.inf
        values[4, 0] = np.inf
        values[4, -1] = -np.inf
        values[5] = rng.random(n_states)
        return values

    @pytest.mark.parametrize("n_states", list(range(1, 65)) + [127, 128, 129, 200, 257])
    @np.errstate(invalid="ignore")  # inf + -inf in row 4
    def test_bitwise_identical_to_contiguous_sum(self, n_states):
        values = self._values(n_states)
        expected = values.sum(axis=-1).view(np.int64)
        # The (X, rows) memory the table path hands the operators.
        state_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)
        assert np.array_equal(state_sum(state_major).view(np.int64), expected)
        assert np.array_equal(state_sum(values).view(np.int64), expected)
        # The (X,) point path.
        points = [np.float64(state_sum(row)).view(np.int64) for row in values]
        assert np.array_equal(points, expected)
        assert not np.signbit(state_sum(state_major)[0])


class TestOperatorsOnModels:
    def test_mean_operator_loss_non_negative_on_model(self, figure3_model):
        stats = IntervalStatistics(figure3_model, "mean")
        for node in figure3_model.hierarchy.iter_nodes():
            _, loss = stats.tables(node)
            assert np.all(loss >= -1e-9)

    def test_sum_operator_gain_loss_non_negative_on_model(self, figure3_model):
        stats = IntervalStatistics(figure3_model, "sum")
        for node in figure3_model.hierarchy.iter_nodes():
            gain, loss = stats.tables(node)
            assert np.all(gain >= -1e-9)
            assert np.all(loss >= -1e-9)
