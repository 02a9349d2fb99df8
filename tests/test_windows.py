"""Tests for the sliding-window PCA (block-merge strategy)."""

import numpy as np
import pytest

from repro.core import BatchPCA, largest_principal_angle
from repro.data import PlantedSubspaceModel
from tests.oracles import SlidingWindowPCA


class TestSlidingWindowPCA:
    def test_matches_batch_over_window(self, small_model, rng):
        x = small_model.sample(4000, rng)
        win = SlidingWindowPCA(
            3, block_size=250, window_blocks=4, robust=False
        )
        win.partial_fit(x)
        # Window covers exactly the last 1000 observations.
        batch = BatchPCA(3).fit(x[-1000:])
        state = win.state()
        assert largest_principal_angle(
            state.basis, batch.components_.T
        ) < 0.1
        assert np.allclose(
            state.eigenvalues, batch.eigenvalues_, rtol=0.15
        )

    def test_hard_expiry_of_old_regime(self, rng):
        """Data before the window must contribute nothing — the property
        damping cannot give."""
        d = 20
        regime_a = rng.standard_normal((2000, d)) * np.array(
            [6.0] + [0.2] * (d - 1)
        )
        regime_b = rng.standard_normal((2000, d)) * np.array(
            [0.2, 6.0] + [0.2] * (d - 2)
        )
        win = SlidingWindowPCA(
            1, block_size=200, window_blocks=3, robust=False
        )
        win.partial_fit(regime_a)
        win.partial_fit(regime_b)
        top = win.state().basis[:, 0]
        assert abs(top[1]) > 0.99  # regime B only
        assert abs(top[0]) < 0.05  # regime A fully expired

    def test_window_size_property(self):
        win = SlidingWindowPCA(2, block_size=100, window_blocks=5)
        assert win.window_size == 500

    def test_current_partial_block_contributes(self, small_model, rng):
        win = SlidingWindowPCA(
            2, block_size=1000, window_blocks=2, robust=False,
            estimator_kwargs={"init_size": 10},
        )
        win.partial_fit(small_model.sample(200, rng))  # < one block
        state = win.state()  # must not raise
        assert state.n_components >= 1

    def test_empty_window_raises(self):
        win = SlidingWindowPCA(2, block_size=100, window_blocks=2)
        with pytest.raises(RuntimeError, match="window is empty"):
            win.state()

    def test_robust_window_resists_outliers(self, small_model, rng):
        win = SlidingWindowPCA(
            3, block_size=400, window_blocks=3, robust=True,
        )
        for i, x in enumerate(small_model.stream(2400, rng)):
            if i % 25 == 0:
                x = 30.0 * rng.standard_normal(40)
            win.update(x)
        assert largest_principal_angle(
            win.state().basis, small_model.basis
        ) < 0.2

    def test_accessor_properties(self, small_model, rng):
        win = SlidingWindowPCA(2, block_size=100, window_blocks=2,
                               robust=False)
        win.partial_fit(small_model.sample(500, rng))
        assert win.components_.shape == (2, 40)
        assert win.eigenvalues_.shape == (2,)
        assert win.mean_.shape == (40,)
        assert win.n_seen == 500

    def test_validation(self):
        with pytest.raises(ValueError, match="n_components"):
            SlidingWindowPCA(0)
        with pytest.raises(ValueError, match="block_size"):
            SlidingWindowPCA(2, block_size=2)
        with pytest.raises(ValueError, match="window_blocks"):
            SlidingWindowPCA(2, window_blocks=0)
