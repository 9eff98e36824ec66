"""Tests for the adaptive cost model (OnlineLinearModel, CostModel)."""

import numpy as np
import pytest

from repro.costmodel.linear import OnlineLinearModel, StepSpec
from repro.costmodel.model import CostModel
from repro.costmodel.steps import (
    SCAN_READ,
    SELECT_OP,
    STAGE_OVERHEAD,
    default_step_specs,
)
from repro.errors import CostModelError


@pytest.fixture
def spec():
    return StepSpec("test.step", prior=(1.0, 0.5), scales=(10.0, 1.0), weight=0.5)


class TestStepSpec:
    def test_dim(self, spec):
        assert spec.dim == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(CostModelError):
            StepSpec("x", prior=(1.0,), scales=(1.0, 1.0))

    def test_nonpositive_scales_rejected(self):
        with pytest.raises(CostModelError):
            StepSpec("x", prior=(1.0,), scales=(0.0,))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(CostModelError):
            StepSpec("x", prior=(1.0,), scales=(1.0,), weight=0.0)


class TestOnlineLinearModel:
    def test_prior_prediction(self, spec):
        model = OnlineLinearModel(spec)
        assert model.predict([2.0, 1.0]) == pytest.approx(2.5)

    def test_prediction_floored_at_zero(self):
        model = OnlineLinearModel(
            StepSpec("x", prior=(-1.0,), scales=(1.0,))
        )
        assert model.predict([5.0]) == 0.0

    def test_wrong_dim_rejected(self, spec):
        model = OnlineLinearModel(spec)
        with pytest.raises(CostModelError):
            model.predict([1.0])
        with pytest.raises(CostModelError):
            model.observe([1.0], 1.0)

    def test_negative_seconds_rejected(self, spec):
        with pytest.raises(CostModelError):
            OnlineLinearModel(spec).observe([1.0, 1.0], -0.1)

    def test_converges_to_true_predictions(self, spec):
        """Feeding noise-free data from a different linear law makes the
        model's *predictions* converge (coefficients may trade off along
        collinear directions, which is fine — predictions are what QCOST
        uses)."""
        model = OnlineLinearModel(spec)
        rng = np.random.default_rng(0)
        true = np.array([0.2, 0.05])
        for _ in range(50):
            x = np.array([rng.uniform(1, 30), 1.0])
            model.observe(x, float(true @ x))
        # Accurate within the feature range the data covered (collinearity
        # leaves the far extrapolation toward u→0 weakly determined).
        for u in (10.0, 18.0, 25.0):
            x = np.array([u, 1.0])
            assert model.predict(x) == pytest.approx(float(true @ x), rel=0.1)

    def test_single_observation_moves_toward_truth(self, spec):
        model = OnlineLinearModel(spec)
        before = model.predict([20.0, 1.0])  # prior: 20.5
        model.observe([20.0, 1.0], 5.0)
        after = model.predict([20.0, 1.0])
        assert abs(after - 5.0) < abs(before - 5.0)

    def test_observation_count(self, spec):
        model = OnlineLinearModel(spec)
        model.observe([1.0, 1.0], 1.0)
        assert model.observations == 1

    @pytest.mark.parametrize(
        "features, seconds",
        [
            ([3.0, 1.0], float("nan")),
            ([3.0, 1.0], float("inf")),
            ([3.0, 1.0], float("-inf")),
            ([float("nan"), 1.0], 0.5),
            ([float("inf"), 1.0], 0.5),
            ([3.0, float("-inf")], 0.5),
        ],
    )
    def test_non_finite_observation_rejected_without_state_change(
        self, spec, features, seconds
    ):
        model = OnlineLinearModel(spec)
        model.observe([2.0, 1.0], 1.5)
        coefficients = model.coefficients
        prediction = model.predict([4.0, 1.0])
        with pytest.raises(CostModelError):
            model.observe(features, seconds)
        assert model.observations == 1
        np.testing.assert_array_equal(model.coefficients, coefficients)
        assert model.predict([4.0, 1.0]) == prediction
        model.observe([3.0, 1.0], 2.0)  # still learns from finite data
        assert np.isfinite(model.coefficients).all()

    def test_predict_is_left_to_right_python_sum(self):
        model = OnlineLinearModel(
            StepSpec("x", prior=(0.1, 0.2, 0.3), scales=(1.0, 1.0, 1.0))
        )
        model.observe([7.0, 3.0, 1.0], 0.9)
        c0, c1, c2 = (float(c) for c in model.coefficients)
        for x in ([1e6, 0.1, 1.0], [0.3, 1e-9, 7.0], [12, 5, 1]):
            total = 0.0
            total += c0 * x[0]
            total += c1 * x[1]
            total += c2 * x[2]
            assert repr(model.predict(x)) == repr(max(total, 0.0))

    def test_predict_propagates_nan(self, spec):
        model = OnlineLinearModel(spec)
        assert np.isnan(model.predict([float("nan"), 1.0]))


class TestCostModel:
    def test_default_specs_cover_all_steps(self):
        specs = default_step_specs()
        assert SCAN_READ in specs and SELECT_OP in specs
        assert STAGE_OVERHEAD in specs

    def test_predict_with_prior(self):
        model = CostModel()
        assert model.predict(SCAN_READ, [1.0, 1.0]) > 0.0

    def test_unknown_step_rejected(self):
        with pytest.raises(CostModelError):
            CostModel().predict("nope.step", [1.0])

    def test_observe_changes_prediction(self):
        model = CostModel()
        before = model.predict(SCAN_READ, [10.0, 1.0])
        model.observe(SCAN_READ, [10.0, 1.0], before * 0.1)
        after = model.predict(SCAN_READ, [10.0, 1.0])
        assert after < before

    def test_non_adaptive_freezes_coefficients(self):
        model = CostModel(adaptive=False)
        before = model.predict(SCAN_READ, [10.0, 1.0])
        model.observe(SCAN_READ, [10.0, 1.0], 0.0)
        assert model.predict(SCAN_READ, [10.0, 1.0]) == before
        assert model.observation_counts() == {SCAN_READ: 0}

    def test_nan_observation_rejected(self):
        model = CostModel()
        before = model.coefficients(SCAN_READ)
        with pytest.raises(CostModelError):
            model.observe(SCAN_READ, [3.0, 1.0], float("nan"))
        assert model.coefficients(SCAN_READ) == before
        assert model.observation_counts() == {SCAN_READ: 0}

    def test_observation_counts(self):
        model = CostModel()
        model.observe(SCAN_READ, [1.0, 1.0], 0.5)
        model.observe(SCAN_READ, [2.0, 1.0], 0.9)
        assert model.observation_counts()[SCAN_READ] == 2

    def test_coefficients_exposed(self):
        model = CostModel()
        coefs = model.coefficients(STAGE_OVERHEAD)
        assert len(coefs) == 1 and coefs[0] > 0


class TestPriorsAreMiscalibrated:
    """The designer priors must over-estimate the calibrated machine —
    that mismatch is what the adaptive claim is about."""

    def test_scan_prior_above_true_block_cost(self):
        from repro.timekeeping.profile import CostKind, MachineProfile

        prior = default_step_specs()[SCAN_READ].prior[0]
        true = MachineProfile.sun3_60().rate(CostKind.BLOCK_READ)
        assert prior > 1.5 * true
